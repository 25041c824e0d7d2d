// A loop counter widened to [-inf, 100] reaches an out-of-line callee
// that offsets it by a constant and updates the cell atomically. The
// recursive guard keeps `bump` from being inlined, so the analyzer walks
// it once per abstract argument tuple the caller's fixpoint produces:
// first the narrow counter ranges of the early iterations, then the
// widened one. The widened record is unbounded, so the atomic is not
// provably per-item-private and the analyzer must not claim CA109
// (redundant-atomic), and the unbounded range must not overflow when the
// footprint is built.
class Down {
public:
    int* a;
    void bump(int* p, int d) {
        if (d > 0) {
            bump(p, d - 1);
        }
        atomic_add(p + 2, 1);
    }
    void operator()(int i) {
        for (int j = 100; j > 0; j = j - 1) {
            bump(&a[j + i], 0);
        }
    }
};
