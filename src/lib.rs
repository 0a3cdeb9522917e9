//! # SDCI: Software Defined Cyberinfrastructure — reproduction
//!
//! A from-scratch Rust reproduction of *"Toward Scalable Monitoring on
//! Large-Scale Storage for Software Defined Cyberinfrastructure"*
//! (PDSW-DISCS'17): the **Ripple** If-Trigger-Then-Action rule engine
//! and the **scalable Lustre ChangeLog monitor** that extends it to
//! multi-petabyte parallel filesystems, together with every substrate
//! they need (a Lustre metadata-plane simulator, an inotify/Watchdog
//! simulator, and ZeroMQ/SQS/Lambda-style messaging).
//!
//! This crate is a facade: it re-exports the workspace crates under
//! stable names. See `README.md` for the architecture overview,
//! `DESIGN.md` for the system inventory, and `EXPERIMENTS.md` for the
//! paper-versus-measured results.
//!
//! | Module | Crate | What it is |
//! |---|---|---|
//! | [`types`] | `sdci-types` | Events, FIDs, virtual time, ids |
//! | [`des`] | `sdci-des` | Deterministic discrete-event kernel |
//! | [`simfs`] | `simfs` | In-memory POSIX-style namespace |
//! | [`lustre`] | `lustre-sim` | Lustre metadata plane: MDTs, ChangeLogs, fid2path |
//! | [`inotify`] | `inotify-sim` | inotify semantics + Watchdog-style recursion |
//! | [`mq`] | `sdci-mq` | PUB/SUB, SQS queue, Lambda pool, `Publish`/`Subscribe` |
//! | [`monitor`] | `sdci-core` | **The paper's contribution**: Collector → Aggregator → consumers |
//! | [`net`] | `sdci-net` | TCP transport: the monitor across OS processes |
//! | [`ripple`] | `ripple` | The SDCI rule engine |
//! | [`baselines`] | `sdci-baselines` | Robinhood-style centralized scanner; polling |
//! | [`workloads`] | `sdci-workloads` | Testbed calibrations, generators, NERSC analysis |
//!
//! # Quickstart
//!
//! Monitor a simulated Lustre filesystem site-wide and react to events:
//!
//! ```
//! use sdci::lustre::{LustreConfig, LustreFs};
//! use sdci::monitor::MonitorClusterBuilder;
//! use sdci::types::SimTime;
//! use parking_lot::Mutex;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::iota_testbed())));
//! let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
//! let mut feed = cluster.subscribe();
//!
//! lfs.lock().create("/results.h5", SimTime::EPOCH)?;
//!
//! let event = feed.next_timeout(Duration::from_secs(5)).expect("event");
//! assert_eq!(event.path, std::path::PathBuf::from("/results.h5"));
//! cluster.shutdown();
//! # Ok::<(), sdci::lustre::LustreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use inotify_sim as inotify;
pub use lustre_sim as lustre;
pub use ripple;
pub use sdci_baselines as baselines;
pub use sdci_core as monitor;
pub use sdci_des as des;
pub use sdci_mq as mq;
pub use sdci_net as net;
pub use sdci_types as types;
pub use sdci_workloads as workloads;
pub use simfs;
