//! Runtime errors.

use std::fmt;

/// Errors surfaced by the NavP executors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A cluster must have at least one PE.
    NoPes,
    /// A messenger hopped to a PE outside the cluster.
    BadHop {
        /// Label of the offending messenger.
        agent: String,
        /// The invalid destination.
        dst: usize,
        /// Cluster size.
        pes: usize,
    },
    /// Every remaining messenger is blocked on an event that nobody can
    /// signal any more.
    Deadlock {
        /// `(label, event)` of each blocked messenger.
        blocked: Vec<(String, String)>,
    },
    /// The multithreaded executor made no progress within its watchdog
    /// timeout (a wall-clock analogue of [`RunError::Deadlock`]).
    Stalled {
        /// Messengers still alive when the watchdog fired.
        live: usize,
    },
    /// A worker thread panicked while running a messenger.
    WorkerPanic(String),
    /// An injected fault crashed a PE and no recovery was possible
    /// (checkpointing disabled in the [`FaultPlan`](crate::FaultPlan)).
    PeCrashed {
        /// The crashed PE.
        pe: usize,
        /// How many messenger runs that PE had completed before crashing.
        run: u64,
    },
    /// A PE crash was injected but the runtime could not restore the
    /// lost state (e.g. a messenger without snapshot support, or the
    /// retry budget for re-delivery was exhausted).
    RecoveryFailed {
        /// The crashed PE.
        pe: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// An operation named a PE outside the cluster.
    PeOutOfRange {
        /// The invalid PE index.
        pe: usize,
        /// Cluster size.
        pes: usize,
    },
    /// A PE process of a distributed executor died or closed its control
    /// connection mid-run (the socket analogue of
    /// [`RunError::PeCrashed`]).
    PeerDisconnected {
        /// The PE whose connection was lost.
        pe: usize,
        /// Human-readable cause (EOF, socket error, exit status…).
        detail: String,
    },
    /// A PE process of a distributed executor was asked to stop
    /// (SIGTERM/SIGINT) and shut down cleanly after flushing its
    /// durable checkpoint state — deliberate termination, not a crash.
    PeStopped {
        /// The PE that stopped.
        pe: usize,
    },
    /// A messenger or store value cannot cross a process boundary: it has
    /// no [`wire_snapshot`](crate::Messenger::wire_snapshot) or no
    /// registered value codec.
    NotSerializable {
        /// Label of the offending messenger or store key.
        agent: String,
    },
    /// A transport-level failure outside any single peer: spawning PE
    /// processes, binding sockets, or a malformed frame on the wire.
    Transport {
        /// Human-readable cause.
        detail: String,
    },
    /// The run was cancelled because it exceeded its wall-clock
    /// deadline (per-job timeouts in a multi-tenant service). Unlike
    /// [`RunError::Stalled`] the run may still have been making
    /// progress — it was just slower than the caller allowed.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NoPes => write!(f, "cluster must have at least one PE"),
            RunError::BadHop { agent, dst, pes } => {
                write!(f, "messenger {agent} hopped to PE {dst}, cluster has {pes}")
            }
            RunError::Deadlock { blocked } => {
                write!(f, "deadlock: {} messenger(s) blocked forever:", blocked.len())?;
                for (who, on) in blocked.iter().take(8) {
                    write!(f, " [{who} waits {on}]")?;
                }
                if blocked.len() > 8 {
                    write!(f, " …")?;
                }
                Ok(())
            }
            RunError::Stalled { live } => write!(
                f,
                "no progress within watchdog timeout; {live} messenger(s) still live (likely deadlock)"
            ),
            RunError::WorkerPanic(msg) => write!(f, "worker thread panicked: {msg}"),
            RunError::PeCrashed { pe, run } => write!(
                f,
                "PE {pe} crashed at run {run} and checkpointing is disabled"
            ),
            RunError::RecoveryFailed { pe, reason } => {
                write!(f, "recovery of crashed PE {pe} failed: {reason}")
            }
            RunError::PeOutOfRange { pe, pes } => {
                write!(f, "PE {pe} out of range, cluster has {pes}")
            }
            RunError::PeerDisconnected { pe, detail } => {
                write!(f, "PE {pe} disconnected mid-run: {detail}")
            }
            RunError::PeStopped { pe } => write!(
                f,
                "PE {pe} was terminated (SIGTERM/SIGINT) and stopped cleanly; \
                 restore the run from its durable checkpoint directory"
            ),
            RunError::NotSerializable { agent } => {
                write!(
                    f,
                    "{agent} cannot cross a process boundary (no wire snapshot / value codec)"
                )
            }
            RunError::Transport { detail } => write!(f, "transport failure: {detail}"),
            RunError::DeadlineExceeded { limit_ms } => {
                write!(f, "run exceeded its {limit_ms} ms deadline and was cancelled")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// A [`RunError::Transport`] with this detail.
    pub fn transport(detail: impl Into<String>) -> RunError {
        RunError::Transport {
            detail: detail.into(),
        }
    }
}

/// Human-readable payload of a caught panic.
pub fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(RunError::NoPes.to_string().contains("at least one"));
        let e = RunError::BadHop {
            agent: "RowCarrier(1)".into(),
            dst: 9,
            pes: 3,
        };
        assert!(e.to_string().contains("RowCarrier(1)"));
        let e = RunError::Deadlock {
            blocked: vec![("A".into(), "EP(0,0)".into())],
        };
        assert!(e.to_string().contains("EP(0,0)"));
        assert!(RunError::Stalled { live: 2 }.to_string().contains("2"));
    }

    #[test]
    fn display_fault_variants() {
        let e = RunError::PeCrashed { pe: 3, run: 17 };
        assert!(e.to_string().contains("PE 3"));
        assert!(e.to_string().contains("run 17"));
        let e = RunError::RecoveryFailed {
            pe: 1,
            reason: "no snapshot for Script".into(),
        };
        assert!(e.to_string().contains("no snapshot"));
        let e = RunError::PeOutOfRange { pe: 5, pes: 4 };
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn display_net_variants() {
        let e = RunError::PeerDisconnected {
            pe: 2,
            detail: "unexpected EOF".into(),
        };
        assert!(e.to_string().contains("PE 2"));
        assert!(e.to_string().contains("unexpected EOF"));
        let e = RunError::PeStopped { pe: 1 };
        assert!(e.to_string().contains("PE 1"));
        assert!(e.to_string().contains("stopped cleanly"));
        let e = RunError::NotSerializable {
            agent: "PingPong".into(),
        };
        assert!(e.to_string().contains("PingPong"));
        let e = RunError::Transport {
            detail: "connection refused".into(),
        };
        assert!(e.to_string().contains("connection refused"));
        let e = RunError::DeadlineExceeded { limit_ms: 1500 };
        assert!(e.to_string().contains("1500 ms"));
    }
}
