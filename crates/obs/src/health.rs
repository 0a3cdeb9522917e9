//! Process readiness probes behind `GET /healthz`.
//!
//! Components register named probes (the aggregator registers "not
//! halted", for example); the exposition server runs them all on each
//! `/healthz` request and answers `200 ok` only when every probe
//! passes, else `503` with one line per failure. The registry-alive
//! check is implicit: rendering the response exercises the same global
//! state `/metrics` serves from.

use std::sync::{Mutex, OnceLock};

type Probe = Box<dyn Fn() -> Result<(), String> + Send + Sync>;

fn probes() -> &'static Mutex<Vec<(String, Probe)>> {
    static PROBES: OnceLock<Mutex<Vec<(String, Probe)>>> = OnceLock::new();
    PROBES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers (or replaces, by name) a readiness probe. The probe
/// returns `Ok(())` when ready and `Err(reason)` when not.
pub fn register_probe(
    name: impl Into<String>,
    probe: impl Fn() -> Result<(), String> + Send + Sync + 'static,
) {
    let name = name.into();
    let mut probes = probes().lock().unwrap_or_else(|e| e.into_inner());
    probes.retain(|(n, _)| *n != name);
    probes.push((name, Box::new(probe)));
}

/// Runs every registered probe; `Err` carries `(probe, reason)` pairs
/// for each failure. No registered probes means ready.
pub fn check() -> Result<(), Vec<(String, String)>> {
    let probes = probes().lock().unwrap_or_else(|e| e.into_inner());
    let failures: Vec<(String, String)> = probes
        .iter()
        .filter_map(|(name, probe)| probe().err().map(|reason| (name.clone(), reason)))
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! The probe registry is process-global; unit tests across modules
    //! that register a failing probe serialize through this one lock.
    use std::sync::Mutex;

    pub(crate) fn probes_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn probes_gate_readiness_and_replace_by_name() {
        let _probes = test_support::probes_lock();
        let halted = Arc::new(AtomicBool::new(false));
        let probe_halted = Arc::clone(&halted);
        register_probe("test.halted", move || {
            if probe_halted.load(Ordering::Relaxed) {
                Err("halted".into())
            } else {
                Ok(())
            }
        });
        assert!(check().is_ok());

        halted.store(true, Ordering::Relaxed);
        let failures = check().unwrap_err();
        assert!(failures.iter().any(|(n, r)| n == "test.halted" && r == "halted"));

        // Re-registering under the same name replaces the old probe.
        register_probe("test.halted", || Ok(()));
        assert!(check().is_ok());
    }
}
