//! Work partitioning across devices: the [`Target`] policy enum, the
//! per-kernel [`ProfileHistory`], and the [`plan`] function that turns a
//! policy plus history into a concrete device split.
//!
//! Everything here is deterministic: `Target::Auto` rebalances from
//! *simulated* per-device throughput recorded in the history, never from
//! wall-clock time, so the same call sequence on a fresh [`crate::Concord`]
//! always yields the same splits, the same reports, and the same memory.

use crate::backend::Span;
use concord_energy::Device;
use std::collections::HashMap;

/// Where a heterogeneous construct should execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// All iterations on the multicore CPU.
    Cpu,
    /// All iterations on the integrated GPU (CPU fallback when the kernel
    /// is GPU-restricted, §3.1).
    Gpu,
    /// Static split: the first `round(n * gpu_fraction)` iterations run on
    /// the GPU, the rest on the CPU, concurrently under one fence pair.
    /// `gpu_fraction` is clamped to `[0, 1]`; degenerate splits collapse
    /// to the pure single-device plans.
    Hybrid {
        /// Fraction of the iteration space given to the GPU.
        gpu_fraction: f64,
    },
    /// Adaptive split from per-kernel profile history: the first call for
    /// a kernel probes both devices with a 50/50 split, later calls split
    /// proportionally to the observed items/sec of each device.
    Auto,
    /// All iterations on the host CPU through the native JIT backend
    /// (`concord-native`) instead of the cycle-level CPU interpreter.
    /// Requires x86-64 Linux; elsewhere the runtime reports
    /// [`crate::RuntimeError::NativeUnsupported`].
    Native,
}

impl Target {
    /// Parse a CLI-style target name: `cpu`, `gpu`, `hybrid`,
    /// `hybrid:<fraction>`, `auto`, or `native`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Target> {
        match s {
            "cpu" => Some(Target::Cpu),
            "gpu" => Some(Target::Gpu),
            "auto" => Some(Target::Auto),
            "native" => Some(Target::Native),
            "hybrid" => Some(Target::Hybrid { gpu_fraction: 0.5 }),
            _ => {
                let frac = s.strip_prefix("hybrid:")?.parse::<f64>().ok()?;
                frac.is_finite().then_some(Target::Hybrid { gpu_fraction: frac })
            }
        }
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::Cpu => write!(f, "cpu"),
            Target::Gpu => write!(f, "gpu"),
            Target::Hybrid { gpu_fraction } => write!(f, "hybrid:{gpu_fraction}"),
            Target::Auto => write!(f, "auto"),
            Target::Native => write!(f, "native"),
        }
    }
}

/// Observed execution totals for one kernel on one device.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceRate {
    items: u64,
    seconds: f64,
}

impl DeviceRate {
    /// Items per simulated second, if anything was observed.
    fn rate(&self) -> Option<f64> {
        (self.items > 0 && self.seconds > 0.0).then(|| self.items as f64 / self.seconds)
    }
}

/// The backend class a device part runs on. Unlike [`Device`] (the
/// energy model's two simulated devices), this also distinguishes the
/// native JIT path, which runs on the CPU device through a backend of its
/// own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceClass {
    /// Interpreted multicore CPU (cycle-level simulator).
    Cpu,
    /// Integrated GPU simulator.
    Gpu,
    /// Host CPU running JIT-compiled machine code (`concord-native`).
    Native,
}

impl From<Device> for DeviceClass {
    fn from(device: Device) -> DeviceClass {
        match device {
            Device::Cpu => DeviceClass::Cpu,
            Device::Gpu => DeviceClass::Gpu,
        }
    }
}

/// Per-kernel record of observed simulated throughput on each
/// [`Device`], accumulated across every construct a [`crate::Concord`]
/// executes on the simulators. `Target::Auto` reads it to pick splits;
/// native launches, timed in wall-clock seconds, do not feed it.
#[derive(Debug, Default)]
pub struct ProfileHistory {
    kernels: HashMap<String, [DeviceRate; 2]>,
}

fn slot(device: Device) -> usize {
    match device {
        Device::Cpu => 0,
        Device::Gpu => 1,
    }
}

impl ProfileHistory {
    /// Record `items` executed in `seconds` of simulated time on `device`.
    pub fn record(&mut self, kernel: &str, device: Device, items: u64, seconds: f64) {
        let e = &mut self.kernels.entry(kernel.to_string()).or_default()[slot(device)];
        e.items += items;
        e.seconds += seconds;
    }

    /// The GPU's share of combined throughput for `kernel`, if both
    /// simulated devices have been observed.
    #[must_use]
    pub fn gpu_share(&self, kernel: &str) -> Option<f64> {
        let rates = self.kernels.get(kernel)?;
        let cpu = rates[slot(Device::Cpu)].rate()?;
        let gpu = rates[slot(Device::Gpu)].rate()?;
        Some(gpu / (gpu + cpu))
    }

    /// Whether nothing has been recorded for any kernel.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

/// A concrete execution plan for one construct: which device runs which
/// sub-range. GPU part (if any) comes first so fences and JIT are charged
/// before CPU work conceptually runs alongside.
#[derive(Debug)]
pub struct Plan {
    /// Sub-ranges in execution order. At most one per device.
    pub parts: Vec<(Device, Span)>,
    /// True when a GPU-targeted plan was redirected to the CPU because
    /// the kernel is GPU-restricted.
    pub fell_back: bool,
    /// The fraction of items the plan gives the GPU.
    pub gpu_fraction: f64,
    /// Which policy produced the plan (for scheduler-decision traces).
    pub policy: &'static str,
}

fn single(device: Device, n: u32, fell_back: bool, policy: &'static str) -> Plan {
    let gpu_fraction = if device == Device::Gpu { 1.0 } else { 0.0 };
    Plan { parts: vec![(device, Span::full(n))], fell_back, gpu_fraction, policy }
}

fn split(n: u32, gpu_fraction: f64, policy: &'static str) -> Plan {
    let frac = gpu_fraction.clamp(0.0, 1.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let g = (f64::from(n) * frac).round() as u32;
    if g == 0 {
        return single(Device::Cpu, n, false, policy);
    }
    if g >= n {
        return single(Device::Gpu, n, false, policy);
    }
    Plan {
        parts: vec![
            (Device::Gpu, Span { lo: 0, hi: g, grid: n }),
            (Device::Cpu, Span { lo: g, hi: n, grid: n }),
        ],
        fell_back: false,
        gpu_fraction: f64::from(g) / f64::from(n),
        policy,
    }
}

/// Decide how to split `[0, n)` for `kernel` under `target`.
///
/// When the kernel cannot run on the GPU (`gpu_allowed == false`), every
/// policy collapses to the CPU and GPU-requesting plans are marked
/// `fell_back` (§3.1's conservative fallback).
#[must_use]
pub fn plan(
    target: Target,
    n: u32,
    gpu_allowed: bool,
    history: &ProfileHistory,
    kernel: &str,
) -> Plan {
    match target {
        // Native runs on the host CPU, so GPU restrictions never apply to
        // it and it never counts as a fallback.
        Target::Native => single(Device::Cpu, n, false, "native"),
        _ if !gpu_allowed => single(Device::Cpu, n, target != Target::Cpu, "fallback"),
        Target::Cpu => single(Device::Cpu, n, false, "cpu"),
        Target::Gpu => single(Device::Gpu, n, false, "gpu"),
        _ if n == 0 => single(Device::Cpu, n, false, "empty"),
        Target::Hybrid { gpu_fraction } => split(n, gpu_fraction, "hybrid"),
        Target::Auto => match history.gpu_share(kernel) {
            Some(share) => split(n, share, "auto"),
            None => split(n, 0.5, "auto-probe"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in ["cpu", "gpu", "auto", "native", "hybrid:0.25"] {
            assert_eq!(Target::parse(s).unwrap().to_string(), s);
        }
        assert_eq!(Target::parse("hybrid"), Some(Target::Hybrid { gpu_fraction: 0.5 }));
        assert_eq!(Target::parse("hybrid:nan"), None);
        assert_eq!(Target::parse("tpu"), None);
    }

    #[test]
    fn hybrid_splits_cover_the_range_without_overlap() {
        for n in [1u32, 2, 7, 100] {
            for frac in [0.0, 0.1, 0.5, 0.9, 1.0, -3.0, 2.0] {
                let p = plan(
                    Target::Hybrid { gpu_fraction: frac },
                    n,
                    true,
                    &ProfileHistory::default(),
                    "K",
                );
                let total: u32 = p.parts.iter().map(|(_, s)| s.items()).sum();
                assert_eq!(total, n, "n={n} frac={frac}");
                let mut next = 0;
                for (_, s) in p
                    .parts
                    .iter()
                    .rev()
                    .filter(|(d, _)| *d == Device::Cpu)
                    .chain(p.parts.iter().filter(|(d, _)| *d == Device::Gpu))
                {
                    assert_eq!(s.grid, n);
                    assert!(s.lo <= s.hi);
                }
                // Parts are [Gpu [0,g), Cpu [g,n)] or a single full span.
                for (_, s) in &p.parts {
                    assert_eq!(s.lo, next);
                    next = s.hi;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn degenerate_fractions_collapse_to_single_device() {
        let h = ProfileHistory::default();
        let p = plan(Target::Hybrid { gpu_fraction: 0.0 }, 10, true, &h, "K");
        assert_eq!(p.parts, vec![(Device::Cpu, Span::full(10))]);
        let p = plan(Target::Hybrid { gpu_fraction: 1.0 }, 10, true, &h, "K");
        assert_eq!(p.parts, vec![(Device::Gpu, Span::full(10))]);
    }

    #[test]
    fn auto_probes_then_follows_history() {
        let mut h = ProfileHistory::default();
        let p = plan(Target::Auto, 100, true, &h, "K");
        assert_eq!(p.policy, "auto-probe");
        assert_eq!(p.parts.len(), 2);
        assert_eq!(p.parts[0], (Device::Gpu, Span { lo: 0, hi: 50, grid: 100 }));

        // GPU observed 3x faster -> 75/25 split.
        h.record("K", Device::Gpu, 300, 1.0);
        h.record("K", Device::Cpu, 100, 1.0);
        let p = plan(Target::Auto, 100, true, &h, "K");
        assert_eq!(p.policy, "auto");
        assert_eq!(p.parts[0], (Device::Gpu, Span { lo: 0, hi: 75, grid: 100 }));
        assert_eq!(p.parts[1], (Device::Cpu, Span { lo: 75, hi: 100, grid: 100 }));

        // History is per kernel.
        let p = plan(Target::Auto, 100, true, &h, "Other");
        assert_eq!(p.policy, "auto-probe");
    }

    #[test]
    fn native_plans_on_cpu_and_never_falls_back() {
        let h = ProfileHistory::default();
        for allowed in [true, false] {
            let p = plan(Target::Native, 10, allowed, &h, "K");
            assert_eq!(p.parts, vec![(Device::Cpu, Span::full(10))]);
            assert!(!p.fell_back);
            assert_eq!(p.policy, "native");
        }
    }

    #[test]
    fn gpu_restricted_kernels_fall_back() {
        let h = ProfileHistory::default();
        for t in [Target::Gpu, Target::Hybrid { gpu_fraction: 0.5 }, Target::Auto] {
            let p = plan(t, 10, false, &h, "K");
            assert_eq!(p.parts, vec![(Device::Cpu, Span::full(10))]);
            assert!(p.fell_back);
        }
        assert!(!plan(Target::Cpu, 10, false, &h, "K").fell_back);
    }
}
