//! Backend selection: which [`Kernel`] backends exist and which one
//! `BEVRA_KERNEL` selects.
//!
//! The backends are the three built-ins (`bevra_core::kernel::builtin()`).
//! The parity suite and the chaos harness enumerate them via [`backends`].
//!
//! # Selection semantics (`BEVRA_KERNEL`)
//!
//! * unset → the `batch` backend (bitwise, grid-priming — the default);
//! * a built-in name (`batch`, `fast`, `deterministic-portable`) → that
//!   backend; `portable` is accepted as an alias for
//!   `deterministic-portable`;
//! * anything else → the default `batch` backend, with a warning on
//!   stderr and a `kernel/unknown_env` metric — a misspelled selector
//!   falls back to the bitwise default rather than aborting.

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

/// Look a backend up by capability name (exact match, plus the
/// `portable` alias for `deterministic-portable`).
#[must_use]
pub fn lookup(name: &str) -> Option<&'static dyn Kernel> {
    let name = if name == "portable" { "deterministic-portable" } else { name };
    backends().into_iter().find(|k| k.capability().name == name)
}

/// Every backend, in registry order. The parity suite and the chaos
/// harness iterate this.
#[must_use]
pub fn backends() -> [&'static dyn Kernel; 3] {
    kernel::builtin()
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
    match request {
        None => Selection { kernel: default_kernel(), warning: None },
        Some(name) => match lookup(name) {
            Some(kernel) => Selection { kernel, warning: None },
            None => Selection {
                kernel: default_kernel(),
                warning: Some("unknown BEVRA_KERNEL backend; falling back to the batch kernel"),
            },
        },
    }
}

/// Resolve `BEVRA_KERNEL` from the environment (see the module docs for
/// the selection table). Unknown names warn on stderr and bump the
/// `kernel/unknown_env` counter before falling back to `batch`.
#[must_use]
pub fn from_env() -> &'static dyn Kernel {
    let request = std::env::var("BEVRA_KERNEL").ok();
    let selection = resolve(request.as_deref());
    if let Some(warning) = selection.warning {
        bevra_obs::metrics::counter("kernel/unknown_env").inc();
        eprintln!("bevra: BEVRA_KERNEL={}: {warning}", request.as_deref().unwrap_or(""));
    }
    selection.kernel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_registered_and_lookup_works() {
        let names: Vec<_> = backends().iter().map(|k| k.capability().name).collect();
        assert_eq!(names, ["batch", "fast", "deterministic-portable"]);
        for want in names {
            assert!(lookup(want).is_some());
        }
        // The short alias resolves to the portable backend.
        assert_eq!(lookup("portable").map(|k| k.capability().name), Some("deterministic-portable"));
        assert!(lookup("scalar").is_none(), "the scalar backend is retired");
    }

    #[test]
    fn resolve_unset_is_default_batch() {
        let sel = resolve(None);
        assert_eq!(sel.kernel.capability().name, "batch");
        assert!(sel.warning.is_none());
    }

    #[test]
    fn resolve_known_names() {
        for (req, want) in [
            ("batch", "batch"),
            ("fast", "fast"),
            ("deterministic-portable", "deterministic-portable"),
            ("portable", "deterministic-portable"),
        ] {
            let sel = resolve(Some(req));
            assert_eq!(sel.kernel.capability().name, want, "request {req}");
            assert!(sel.warning.is_none(), "request {req} warned spuriously");
        }
    }

    #[test]
    fn resolve_unknown_falls_back_to_batch_with_warning() {
        for req in ["no-such-backend", "scalar"] {
            let sel = resolve(Some(req));
            assert_eq!(sel.kernel.capability().name, "batch", "request {req}");
            assert!(sel.warning.is_some(), "unknown backend {req} must warn");
        }
    }
}
