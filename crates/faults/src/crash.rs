//! Named crash/fail points.
//!
//! A crash point is a call like
//! `sdci_faults::crash_point("store.flush.manifest_commit")?` compiled
//! into a recovery-critical code path. Unarmed, it costs one relaxed
//! atomic load. Armed — via the `SDCI_CRASH_POINTS` env var or
//! [`arm`] — the point either aborts the process on its n-th hit
//! (simulating `kill -9` at exactly that step) or returns an injected
//! `io::Error` (simulating a transient syscall failure such as EAGAIN
//! from `clone(2)`).
//!
//! Env syntax: `SDCI_CRASH_POINTS=name[:N[:abort|error]][,...]` — the
//! point fires on its `N`-th hit (default 1) and then disarms, so a
//! restarted process re-running the same binary does not crash again
//! unless re-armed.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError};

/// Environment variable listing armed crash points.
pub const ENV_CRASH_POINTS: &str = "SDCI_CRASH_POINTS";

/// What an armed crash point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// `std::process::abort()` — the hard-kill a chaos schedule uses to
    /// test recovery; no destructors, no flush, exactly like SIGKILL at
    /// that instruction.
    Abort,
    /// Return `io::Error` (`ErrorKind::Other`, message names the
    /// point) from [`crash_point`] — a transient-failure simulation the
    /// caller must survive.
    Error,
}

#[derive(Debug)]
struct ArmedPoint {
    /// Fires when this many hits have accumulated.
    after: u32,
    hits: u32,
    mode: CrashMode,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// The armed points. Every update is one insert, remove or clear, so a
/// panic while the lock was held leaves the map whole, and callers take
/// a poisoned lock as it is.
fn registry() -> &'static Mutex<HashMap<String, ArmedPoint>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, ArmedPoint>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Parses and arms everything in `SDCI_CRASH_POINTS`. Called lazily by
/// the first [`crash_point`] hit, so binaries need no explicit init;
/// callable eagerly (e.g. by `sdcimon`) to surface spec typos at start
/// rather than at the first armed path.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(spec) = std::env::var(ENV_CRASH_POINTS) else { return };
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match parse_term(term) {
                Ok((name, after, mode)) => arm(&name, after, mode),
                Err(err) => {
                    sdci_obs::error!("bad SDCI_CRASH_POINTS term `{term}`"; error = err)
                }
            }
        }
    });
}

fn parse_term(term: &str) -> Result<(String, u32, CrashMode), String> {
    let mut parts = term.split(':');
    let name = parts.next().unwrap_or_default();
    if name.is_empty() {
        return Err("empty crash point name".into());
    }
    let after = match parts.next() {
        None => 1,
        Some(n) => n.parse::<u32>().map_err(|_| format!("bad hit count `{n}`"))?,
    };
    if after == 0 {
        return Err("hit count must be >= 1".into());
    }
    let mode = match parts.next() {
        None | Some("abort") => CrashMode::Abort,
        Some("error") => CrashMode::Error,
        Some(other) => return Err(format!("unknown mode `{other}`")),
    };
    if parts.next().is_some() {
        return Err(format!("trailing fields in `{term}`"));
    }
    Ok((name.to_string(), after, mode))
}

/// Arms `name` to fire on its `after`-th hit (1 = next hit) in `mode`.
/// Re-arming an already-armed point resets its hit counter.
pub fn arm(name: &str, after: u32, mode: CrashMode) {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.insert(name.to_string(), ArmedPoint { after: after.max(1), hits: 0, mode });
    ANY_ARMED.store(true, Ordering::Release);
    sdci_obs::info!("crash point armed"; point = name, after = u64::from(after), mode = format!("{mode:?}"));
}

/// Disarms one point; returns true if it was armed.
pub fn disarm(name: &str) -> bool {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let removed = reg.remove(name).is_some();
    if reg.is_empty() {
        ANY_ARMED.store(false, Ordering::Release);
    }
    removed
}

/// Disarms every point (tests call this between cases).
pub fn disarm_all() {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.clear();
    ANY_ARMED.store(false, Ordering::Release);
}

/// Renders the currently armed points as an env-style spec (for
/// failure reports); empty string when nothing is armed.
pub fn armed_spec() -> String {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let mut terms: Vec<String> = reg
        .iter()
        .map(|(name, p)| {
            let mode = match p.mode {
                CrashMode::Abort => "abort",
                CrashMode::Error => "error",
            };
            format!("{name}:{}:{mode}", p.after.saturating_sub(p.hits).max(1))
        })
        .collect();
    terms.sort();
    terms.join(",")
}

/// The crash point itself. Returns `Ok(())` when unarmed or not yet at
/// its trigger count; aborts the process or returns an injected error
/// when it fires. A fired point disarms itself.
pub fn crash_point(name: &str) -> io::Result<()> {
    init_from_env();
    if !ANY_ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    let mode = {
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let Some(point) = reg.get_mut(name) else { return Ok(()) };
        point.hits += 1;
        if point.hits < point.after {
            return Ok(());
        }
        let mode = point.mode;
        reg.remove(name);
        if reg.is_empty() {
            ANY_ARMED.store(false, Ordering::Release);
        }
        mode
    };
    match mode {
        CrashMode::Abort => {
            // Flush the log record before dying: the chaos harness
            // greps for it to confirm the schedule fired where asked.
            sdci_obs::error!("crash point firing: abort"; point = name);
            std::process::abort();
        }
        CrashMode::Error => {
            sdci_obs::error!("crash point firing: injected error"; point = name);
            Err(io::Error::other(format!("injected fault at crash point `{name}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global: a test that arms points holds
    /// this lock, so no other test's arming or disarming lands in it.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn arm_fire_and_disarm_semantics() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        disarm_all();
        assert!(crash_point("unarmed.point").is_ok());

        // Error mode fires on the n-th hit, then disarms.
        arm("t.point", 3, CrashMode::Error);
        assert!(crash_point("t.point").is_ok());
        assert!(crash_point("t.point").is_ok());
        let err = crash_point("t.point").unwrap_err();
        assert!(err.to_string().contains("t.point"), "error names the point: {err}");
        assert!(crash_point("t.point").is_ok(), "fired point disarms itself");

        // Other names never fire.
        arm("t.other", 1, CrashMode::Error);
        assert!(crash_point("t.point").is_ok());
        assert!(crash_point("t.other").is_err());

        // armed_spec renders remaining-hit counts.
        arm("t.a", 2, CrashMode::Error);
        arm("t.b", 1, CrashMode::Abort);
        assert!(crash_point("t.a").is_ok());
        assert_eq!(armed_spec(), "t.a:1:error,t.b:1:abort");

        assert!(disarm("t.a"));
        assert!(!disarm("t.a"));
        disarm_all();
        assert_eq!(armed_spec(), "");
        assert!(crash_point("t.b").is_ok());
    }

    #[test]
    fn a_panic_holding_the_registry_lock_leaves_crash_points_working() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let poisoner = std::thread::spawn(|| {
            let _held = registry().lock();
            panic!("panicking while holding the crash point registry");
        });
        assert!(poisoner.join().is_err());
        assert!(registry().is_poisoned());

        assert!(crash_point("t.poisoned").is_ok());
        arm("t.poisoned", 1, CrashMode::Error);
        assert!(crash_point("t.poisoned").is_err(), "an armed point still fires");
        arm("t.poisoned", 1, CrashMode::Error);
        disarm_all();
        assert!(crash_point("t.poisoned").is_ok(), "disarm_all still disarms");
        assert_eq!(armed_spec(), "");
    }

    #[test]
    fn env_term_parser() {
        assert_eq!(
            parse_term("store.flush.head").unwrap(),
            ("store.flush.head".into(), 1, CrashMode::Abort)
        );
        assert_eq!(parse_term("x:4").unwrap(), ("x".into(), 4, CrashMode::Abort));
        assert_eq!(parse_term("x:2:error").unwrap(), ("x".into(), 2, CrashMode::Error));
        assert!(parse_term(":2").is_err());
        assert!(parse_term("x:zero").is_err());
        assert!(parse_term("x:0").is_err());
        assert!(parse_term("x:1:explode").is_err());
        assert!(parse_term("x:1:error:extra").is_err());
    }
}
