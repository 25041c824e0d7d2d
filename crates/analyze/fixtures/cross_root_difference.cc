// A pointer rebuilt from the distance between two kernel operands:
// `(long)in - (long)out` is the byte distance from `out`'s allocation to
// `in`'s, so `p` points into `in` although its arithmetic starts at
// `out`. No footprint on either allocation bounds where the store lands,
// so the kernel's access summary must be opaque: a runtime that trusted
// a footprint on `out` would miss the write to `in`.
class Relocate {
public:
    int* in;
    int* out;
    void operator()(int i) {
        int* p = out + ((long)in - (long)out) / 4;
        p[i] = i;
    }
};
