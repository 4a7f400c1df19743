//! The injection log: rule notifications and records, as the paper's
//! injector logged them (§VII-A2).

use std::collections::BTreeMap;
use std::fmt;

/// What one log event records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogKind {
    /// A rule's conditional matched a message.
    RuleMatched {
        /// State index.
        state: usize,
        /// Rule name.
        rule: String,
        /// Message id.
        msg_id: u64,
    },
    /// The attack transitioned between states.
    Transition {
        /// Previous state index.
        from: usize,
        /// New state index.
        to: usize,
    },
    /// `READMESSAGEMETADATA` record.
    MetadataRecord {
        /// Message id.
        msg_id: u64,
        /// Rendered metadata.
        summary: String,
    },
    /// `READMESSAGE` record.
    PayloadRecord {
        /// Message id.
        msg_id: u64,
        /// Rendered payload.
        summary: String,
    },
    /// An action or conditional failed at runtime (logged, not fatal).
    ActionError {
        /// Rule name.
        rule: String,
        /// Rendered error.
        error: String,
    },
    /// A new message was injected.
    Injected {
        /// Target connection index.
        conn: usize,
    },
    /// A message was held during `SLEEP`.
    Held {
        /// Message id.
        msg_id: u64,
    },
    /// `SLEEP` began.
    SleepStart {
        /// Wake time (ns).
        until_ns: u64,
    },
    /// `SYSCMD` was issued.
    SysCmd {
        /// Host name.
        host: String,
        /// Command line.
        cmd: String,
    },
    /// `FAULT` was issued (environment fault, dispatched to the testbed).
    Fault {
        /// The fault spec text.
        spec: String,
    },
}

/// One timestamped log event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    /// Virtual (or wall) time in nanoseconds.
    pub time_ns: u64,
    /// The record.
    pub kind: LogKind,
}

impl fmt::Display for LogEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.6}s] {:?}", self.time_ns as f64 / 1e9, self.kind)
    }
}

/// The complete injection log plus per-rule fire counters.
#[derive(Debug, Default, Clone)]
pub struct InjectionLog {
    events: Vec<LogEvent>,
    fire_counts: BTreeMap<String, u64>,
}

impl InjectionLog {
    /// Creates an empty log.
    pub(crate) fn new() -> InjectionLog {
        InjectionLog::default()
    }

    /// Appends an event.
    pub(crate) fn push(&mut self, time_ns: u64, kind: LogKind) {
        if let LogKind::RuleMatched { rule, .. } = &kind {
            *self.fire_counts.entry(rule.clone()).or_insert(0) += 1;
        }
        self.events.push(LogEvent { time_ns, kind });
    }

    /// All events in order.
    pub fn events(&self) -> &[LogEvent] {
        &self.events
    }

    /// Every rule that fired, with its count, in name order.
    pub fn rule_fire_counts(&self) -> impl Iterator<Item = (&str, u64)> {
        self.fire_counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// How many times the named rule matched.
    pub fn rule_fires(&self, rule: &str) -> u64 {
        self.fire_counts.get(rule).copied().unwrap_or(0)
    }

    /// The state transitions, in order.
    pub fn transitions(&self) -> Vec<(usize, usize)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                LogKind::Transition { from, to } => Some((*from, *to)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_counts_and_transitions() {
        let mut log = InjectionLog::new();
        log.push(
            0,
            LogKind::RuleMatched {
                state: 0,
                rule: "phi1".into(),
                msg_id: 1,
            },
        );
        log.push(
            1,
            LogKind::RuleMatched {
                state: 0,
                rule: "phi1".into(),
                msg_id: 2,
            },
        );
        log.push(2, LogKind::Transition { from: 0, to: 1 });
        assert_eq!(log.rule_fires("phi1"), 2);
        assert_eq!(log.rule_fires("phi2"), 0);
        assert_eq!(log.transitions(), vec![(0, 1)]);
        assert_eq!(log.events().len(), 3);
    }

    #[test]
    fn display_has_time_prefix() {
        let e = LogEvent {
            time_ns: 1_500_000_000,
            kind: LogKind::Transition { from: 0, to: 2 },
        };
        assert!(e.to_string().starts_with("[1.500000s]"));
    }
}
