//! Workspace acceptance for the kernel backend registry: capability
//! records flow into the persistent-cache key, the default `batch`
//! backend is bitwise the per-point model path, `BEVRA_KERNEL` names
//! resolve as documented, and the `deterministic-portable` backend
//! produces pinned, libm-independent bits.

use bevra::analysis::{kernel, DiscreteModel, PiEval};
use bevra::engine::{CacheMode, ExecMode, PersistentCache, SweepEngine};
use bevra::load::{Poisson, Tabulated};
use bevra::utility::AdaptiveExp;

fn model() -> DiscreteModel<AdaptiveExp> {
    let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
    DiscreteModel::new(load, AdaptiveExp::paper())
}

fn grid() -> Vec<f64> {
    (1..=16).map(|i| 2.5 * f64::from(i)).collect()
}

/// The capability record round-trips through the persistent-cache key:
/// rows primed by one parity class are never served to another, while
/// the same backend is served its own rows. Checked functionally through
/// real cache traffic, not just key inequality.
#[test]
fn capability_record_round_trips_through_cache_key() {
    let dir = std::env::temp_dir()
        .join(format!("bevra-kernel-cache-key-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cs = grid();
    let pcache = || PersistentCache::new(&dir, CacheMode::ReadWrite);
    let engine = |k| {
        SweepEngine::with_mode(model(), ExecMode::Serial)
            .with_kernel(k)
            .with_persistent_cache(pcache())
    };

    // Cold batch prime: one miss, one store.
    let batch = engine(kernel::batch());
    batch.prime(&cs);
    assert_eq!(batch.persistent_cache().map(|p| p.stores()), Some(1));

    // Fast and portable request different capability keys: both miss the
    // batch entry and store their own.
    for k in [kernel::fast(), kernel::portable()] {
        let other = engine(k);
        other.prime(&cs);
        let pc = other.persistent_cache().expect("cache attached");
        let s = pc.stats();
        assert_eq!(
            (s.hits, s.misses),
            (0, 1),
            "{}: must not be served another parity class's rows",
            k.capability().name
        );
        assert_eq!(pc.stores(), 1, "{}: stores its own entry", k.capability().name);
    }

    // A warm batch engine is a pure hit again.
    let warm = engine(kernel::batch());
    warm.prime(&cs);
    let s = warm.persistent_cache().expect("cache attached").stats();
    assert_eq!((s.hits, s.misses), (1, 0), "batch warm prime is a pure hit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `batch` backend is bitwise the per-point path:
/// `DiscreteModel::{k_max, best_effort, reservation}` called point by
/// point plus the serial `bandwidth_gap` solver — the exact code the
/// engine ran before the `Kernel` trait existed.
#[test]
fn batch_backend_is_bitwise_the_per_point_path() {
    let cs = grid();
    let reference = model();
    let swept = SweepEngine::with_mode(model(), ExecMode::Serial)
        .with_kernel(kernel::batch())
        .sweep(&cs);
    for (&c, pt) in cs.iter().zip(&swept) {
        assert_eq!(reference.k_max(c), kernel_k_max(&reference, c), "sanity");
        assert_eq!(reference.best_effort(c).to_bits(), pt.best_effort.to_bits(), "B at C={c}");
        assert_eq!(reference.reservation(c).to_bits(), pt.reservation.to_bits(), "R at C={c}");
        let gap = bevra::analysis::bandwidth_gap(&reference, c).unwrap_or(f64::NAN);
        assert_eq!(gap.to_bits(), pt.bandwidth_gap.to_bits(), "Δ at C={c}");
    }
}

/// The batch *backend object* agrees with the model methods it claims to
/// mirror (guards the trait impl itself, not just the engine plumbing).
fn kernel_k_max(m: &DiscreteModel<AdaptiveExp>, c: f64) -> Option<u64> {
    let dyn_m = m.as_dyn();
    kernel::batch().k_max_grid(&dyn_m, &[c])[0]
}

/// FNV-1a over a stream of u64 bit patterns.
fn fnv(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in bits {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The `deterministic-portable` backend's bits are **pinned**: the whole
/// pipeline below it — explicit literal load weights, the κ literal, the
/// integer-scaled `one_minus_exp_neg` polynomial, Neumaier summation —
/// avoids libm entirely, so this digest must reproduce on every OS, libm
/// version, and CPU architecture. A digest change means the portable
/// contract broke (or the pipeline was intentionally changed: re-pin with
/// the printed value). This is the test that retires the libm-ULP
/// seed-artifact drift caveat: portable artifacts can be golden-pinned
/// exactly, with zero ULP budget.
#[test]
fn portable_backend_digest_is_pinned_across_environments() {
    // Literal weights (an asymmetric bell around k = 4) — no libm in the
    // table construction, unlike `Tabulated::from_model(&Poisson, ..)`.
    let load = Tabulated::from_weights(vec![
        0.02, 0.08, 0.16, 0.22, 0.20, 0.14, 0.09, 0.05, 0.03, 0.01,
    ]);
    let model = DiscreteModel::new(load, AdaptiveExp::paper());
    let cs: Vec<f64> = (1..=24).map(|i| 0.625 * f64::from(i)).collect();
    let swept = bevra::analysis::sweep_grid(&model, &cs, PiEval::Portable);

    let digest = fnv(
        swept
            .k_max
            .iter()
            .map(|k| k.map_or(u64::MAX, |v| v))
            .chain(swept.best_effort.iter().map(|b| b.to_bits()))
            .chain(swept.reservation.iter().map(|r| r.to_bits())),
    );
    assert_eq!(
        digest, 0xA885_60D8_D562_C727,
        "portable sweep bits drifted: digest {digest:#018X}"
    );

    // And the engine path over the portable backend reproduces itself
    // exactly (cache off, grid priming on): determinism within this
    // environment is a prerequisite of determinism across them.
    let again = bevra::analysis::sweep_grid(&model, &cs, PiEval::Portable);
    assert_eq!(swept.best_effort, again.best_effort);
    assert_eq!(swept.reservation, again.reservation);
}

/// `BEVRA_KERNEL` resolution is observable end to end: the health ledger
/// of a checked sweep names the backend that evaluated it.
#[test]
fn health_ledger_names_the_active_backend() {
    let cs = grid();
    for (k, want) in [
        (kernel::batch(), "batch"),
        (kernel::fast(), "fast"),
        (kernel::portable(), "deterministic-portable"),
    ] {
        let checked = SweepEngine::with_mode(model(), ExecMode::Serial)
            .with_kernel(k)
            .sweep_checked(&cs);
        assert_eq!(checked.health.kernel.as_deref(), Some(want));
        assert!(checked.health.is_clean(), "{want}: clean sweep expected");
    }
}
