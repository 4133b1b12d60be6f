//! Backend selection: which [`Kernel`] backend `BEVRA_KERNEL` selects.
//!
//! # Selection semantics (`BEVRA_KERNEL`)
//!
//! * unset or `batch` → the `batch` backend (bitwise, grid-priming — the
//!   only one);
//! * anything else, the retired `fast`, `portable` and
//!   `deterministic-portable` included → the same `batch` backend, with
//!   one warning on stderr per process and a `kernel/unknown_env` metric
//!   per resolution — a misspelled or retired selector falls back to the
//!   bitwise default rather than aborting.

use bevra_core::kernel::{self, Kernel};

/// The outcome of resolving a `BEVRA_KERNEL` request (see [`resolve`]).
#[derive(Clone, Copy)]
pub struct Selection {
    /// The backend the engine will use.
    pub kernel: &'static dyn Kernel,
    /// Human-readable warning when the request named an unknown backend
    /// and the default was substituted; `None` on a clean match.
    pub warning: Option<&'static str>,
}

impl std::fmt::Debug for Selection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Selection")
            .field("kernel", &self.kernel.capability().name)
            .field("warning", &self.warning)
            .finish()
    }
}

/// The backend used when `BEVRA_KERNEL` is unset: grid-batched, bitwise.
#[must_use]
pub fn default_kernel() -> &'static dyn Kernel {
    kernel::batch()
}

/// Pure resolution of a `BEVRA_KERNEL` request — the testable core of
/// [`from_env`]. `None` (variable unset) selects the default backend;
/// an unknown name falls back to the same bitwise default with a
/// warning, never an abort.
#[must_use]
pub fn resolve(request: Option<&str>) -> Selection {
    let kernel = default_kernel();
    match request {
        Some(name) if name != kernel.capability().name => Selection {
            kernel,
            warning: Some("unknown BEVRA_KERNEL backend; falling back to the batch kernel"),
        },
        _ => Selection { kernel, warning: None },
    }
}

/// Resolve `BEVRA_KERNEL` from the environment (see the module docs for
/// the selection table). Unknown names bump the `kernel/unknown_env`
/// counter before falling back to `batch`; the first one in a process
/// also warns on stderr (every engine resolves the variable, so a figure
/// run would otherwise repeat the warning once per engine).
#[must_use]
pub fn from_env() -> &'static dyn Kernel {
    static WARNED: std::sync::Once = std::sync::Once::new();
    let request = std::env::var("BEVRA_KERNEL").ok();
    let selection = resolve(request.as_deref());
    if let Some(warning) = selection.warning {
        bevra_obs::metrics::counter("kernel/unknown_env").inc();
        WARNED.call_once(|| {
            eprintln!("bevra: BEVRA_KERNEL={}: {warning}", request.as_deref().unwrap_or(""));
        });
    }
    selection.kernel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_unset_is_default_batch() {
        let sel = resolve(None);
        assert_eq!(sel.kernel.capability().name, "batch");
        assert!(sel.warning.is_none());
    }

    #[test]
    fn resolve_known_names() {
        let sel = resolve(Some("batch"));
        assert_eq!(sel.kernel.capability().name, "batch");
        assert!(sel.warning.is_none(), "request batch warned spuriously");
    }

    #[test]
    fn resolve_unknown_falls_back_to_batch_with_warning() {
        for req in ["no-such-backend", "scalar", "fast", "portable", "deterministic-portable"] {
            let sel = resolve(Some(req));
            assert_eq!(sel.kernel.capability().name, "batch", "request {req}");
            assert!(sel.warning.is_some(), "unknown backend {req} must warn");
        }
    }
}
