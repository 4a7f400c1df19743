//! The injection log (§VII-A2): rule matches and rule errors are counts
//! per rule; every other kind of entry is a timestamped record.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// What one log event records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogKind {
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

/// The injection log's records plus match and error counts per rule.
#[derive(Debug, Clone)]
pub struct InjectionLog {
    events: Vec<LogEvent>,
    /// Each rule's name by its flat number, shared by every clone.
    names: Arc<[String]>,
    /// How many messages each rule matched, by its flat number.
    fires: Vec<u64>,
    /// Each rule's error count and first error text, by its flat number.
    errors: Vec<Option<(u64, String)>>,
}

impl InjectionLog {
    /// Creates an empty log for the rules named `names`, by flat number.
    pub(crate) fn new(names: Arc<[String]>) -> InjectionLog {
        InjectionLog {
            events: Vec::new(),
            fires: vec![0; names.len()],
            errors: vec![None; names.len()],
            names,
        }
    }

    /// Appends an event.
    pub(crate) fn push(&mut self, time_ns: u64, kind: LogKind) {
        self.events.push(LogEvent { time_ns, kind });
    }

    /// Counts a match of the rule numbered `rule`.
    pub(crate) fn fire(&mut self, rule: usize) {
        self.fires[rule] += 1;
    }

    /// Counts a failure of the rule numbered `rule`; only its first text is kept.
    pub(crate) fn error(&mut self, rule: usize, error: impl fmt::Display) {
        let (n, _) = self.errors[rule].get_or_insert_with(|| (0, error.to_string()));
        *n += 1;
    }

    /// All events in order.
    pub fn events(&self) -> &[LogEvent] {
        &self.events
    }

    /// Every rule that fired, with its count, in name order. Rules that
    /// share a name count as one.
    pub fn rule_fire_counts(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut counts = BTreeMap::new();
        for (name, &n) in self.names.iter().zip(&self.fires).filter(|f| *f.1 > 0) {
            *counts.entry(name.as_str()).or_insert(0) += n;
        }
        counts.into_iter()
    }

    /// How many times the named rule matched.
    pub fn rule_fires(&self, rule: &str) -> u64 {
        let named = self.names.iter().zip(&self.fires).filter(|f| f.0 == rule);
        named.map(|f| f.1).sum()
    }

    /// Every failed rule's error count and first error text, in name order.
    /// Same-named rules count as one, with the first declared failed one's text.
    pub fn rule_errors(&self) -> impl Iterator<Item = (&str, u64, &str)> {
        let mut errors = BTreeMap::new();
        for (name, error) in self.names.iter().zip(&self.errors) {
            if let Some((n, text)) = error {
                errors.entry(name.as_str()).or_insert((0, text.as_str())).0 += n;
            }
        }
        errors.into_iter().map(|(name, (n, text))| (name, n, text))
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
        let names = ["phi1", "phi3", "phi1", "phi4"].map(String::from);
        let mut log = InjectionLog::new(Arc::from(names));
        log.fire(0);
        log.fire(2);
        log.fire(1);
        log.push(2, LogKind::Transition { from: 0, to: 1 });
        assert_eq!(log.rule_fires("phi1"), 2);
        assert_eq!(log.rule_fires("phi2"), 0);
        assert_eq!(log.rule_fires("phi4"), 0);
        let counts: Vec<_> = log.rule_fire_counts().collect();
        assert_eq!(counts, [("phi1", 2), ("phi3", 1)]);
        assert_eq!(log.transitions(), vec![(0, 1)]);
        assert_eq!(log.events().len(), 1);
    }

    #[test]
    fn errors_are_counted_with_their_first_text() {
        let names = ["phi1", "phi3", "phi1", "phi4"].map(String::from);
        let mut log = InjectionLog::new(Arc::from(names));
        log.error(2, "later rule");
        log.error(0, "first");
        log.error(0, "second");
        log.error(1, "other");
        let errors: Vec<_> = log.rule_errors().collect();
        assert_eq!(errors, [("phi1", 3, "first"), ("phi3", 1, "other")]);
        assert!(log.events().is_empty());
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
