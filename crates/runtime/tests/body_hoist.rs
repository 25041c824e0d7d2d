//! A native chunk may load a kernel's body fields once per chunk only
//! when no write of the launch can land in the body's block. Here the
//! body holds a pointer to itself, and every item stores through it into
//! a field the kernel reads: item `i` must see the value item `i - 1`
//! left, so the per-item loads stay. The expected bytes are computed on
//! the host, and the instruction counts are pinned, at host threads 1
//! and 8, for a `for` launch and a worklist round.

use concord_runtime::{Concord, Options, Target};
use concord_svm::CpuAddr;

const BUMP: &str = r#"
    class Bump {
    public:
        int* out;
        Bump* self;
        int k;
        void operator()(int i) {
            int v = k;
            self->k = v + 1;
            out[i] = v;
        }
    };
"#;

const N: u32 = 64;
const K0: i32 = 1000;
/// 21 IR instructions per item.
const INSTS: u64 = 21 * N as u64;

/// `out` and the body after one `Bump` launch over `items` (a `for`
/// launch when `None`), plus the launch's instruction count.
fn run(host_threads: usize, items: Option<&[i32]>) -> (Vec<i32>, i32, u64) {
    let opts = Options { host_threads: Some(host_threads), ..Options::default() };
    let mut cc = Concord::new(concord_energy::SystemConfig::ultrabook(), BUMP, opts).unwrap();
    let out = cc.malloc(u64::from(N) * 4).unwrap();
    let body = cc.malloc(24).unwrap();
    let region = cc.region_mut();
    region.write_ptr(body, out).unwrap();
    region.write_ptr(CpuAddr(body.0 + 8), body).unwrap();
    region.write_i32(CpuAddr(body.0 + 16), K0).unwrap();
    let insts = match items {
        None => cc.parallel_for_hetero("Bump", body, N, Target::Native).unwrap().insts,
        Some(seed) => {
            cc.parallel_worklist_hetero("Bump", body, seed, Target::Native).unwrap().offload.insts
        }
    };
    let region = cc.region();
    let got = (0..N).map(|i| region.read_i32(CpuAddr(out.0 + 4 * u64::from(i))).unwrap());
    let k = region.read_i32(CpuAddr(body.0 + 16)).unwrap();
    assert_eq!(region.read_ptr(CpuAddr(body.0 + 8)).unwrap(), body, "self pointer");
    (got.collect(), k, insts)
}

#[test]
fn a_body_written_through_its_own_field_is_reloaded_per_item() {
    if !concord_native::supported() {
        return;
    }
    let ids: Vec<i32> = (0..N as i32).collect();
    // Item `i` is the `i`-th to run, so it reads `K0 + i`.
    let want: Vec<i32> = ids.iter().map(|&i| K0 + i).collect();
    for host_threads in [1, 8] {
        let (out, k, insts) = run(host_threads, None);
        assert_eq!((out, k), (want.clone(), K0 + N as i32), "for, ht {host_threads}");
        assert_eq!(insts, INSTS, "for, ht {host_threads}");
        let (out, k, insts) = run(host_threads, Some(&ids));
        assert_eq!((out, k), (want.clone(), K0 + N as i32), "worklist, ht {host_threads}");
        assert_eq!(insts, INSTS, "worklist, ht {host_threads}");
    }
}
