//! Attack storage `Δ` (paper §V-C): named double-ended queues.
//!
//! Deques serve as stacks (reordering), queues (replay), and O(1)
//! counters (§VIII-B) — the storage that lets one attack state stand in
//! for `n` memoryless states.

use crate::lang::value::Value;
use std::collections::{BTreeMap, VecDeque};

/// The named deque store `Δ = {δ_1, …, δ_l}`.
#[derive(Debug, Clone, Default)]
pub struct DequeStore {
    deques: BTreeMap<String, VecDeque<Value>>,
}

impl DequeStore {
    /// Creates an empty store.
    pub fn new() -> DequeStore {
        DequeStore::default()
    }

    /// `PREPEND(δ, value)`: adds to the front, creating δ if needed.
    pub fn prepend(&mut self, name: &str, value: Value) {
        self.deques
            .entry(name.to_string())
            .or_default()
            .push_front(value);
    }

    /// `APPEND(δ, value)`: adds to the end, creating δ if needed.
    pub fn append(&mut self, name: &str, value: Value) {
        self.deques
            .entry(name.to_string())
            .or_default()
            .push_back(value);
    }

    /// `EXAMINEFRONT(δ)`: reads the front element without removing it.
    pub fn examine_front(&self, name: &str) -> Value {
        self.deques
            .get(name)
            .and_then(|d| d.front())
            .cloned()
            .unwrap_or(Value::None)
    }

    /// `EXAMINEEND(δ)`: reads the end element without removing it.
    pub fn examine_end(&self, name: &str) -> Value {
        self.deques
            .get(name)
            .and_then(|d| d.back())
            .cloned()
            .unwrap_or(Value::None)
    }

    /// `SHIFT(δ)`: removes and returns the front element.
    pub fn shift(&mut self, name: &str) -> Value {
        self.deques
            .get_mut(name)
            .and_then(|d| d.pop_front())
            .unwrap_or(Value::None)
    }

    /// `POP(δ)`: removes and returns the end element.
    pub fn pop(&mut self, name: &str) -> Value {
        self.deques
            .get_mut(name)
            .and_then(|d| d.pop_back())
            .unwrap_or(Value::None)
    }

    /// Number of elements in δ (0 if it does not exist).
    pub fn len(&self, name: &str) -> usize {
        self.deques.get(name).map(|d| d.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_discipline_with_append_and_shift() {
        let mut d = DequeStore::new();
        d.append("q", Value::Int(1));
        d.append("q", Value::Int(2));
        d.append("q", Value::Int(3));
        assert_eq!(d.shift("q"), Value::Int(1));
        assert_eq!(d.shift("q"), Value::Int(2));
        assert_eq!(d.shift("q"), Value::Int(3));
        assert_eq!(d.shift("q"), Value::None);
    }

    #[test]
    fn stack_discipline_with_prepend_and_shift() {
        // The paper's reordering pattern (§VIII-A): PREPEND then SHIFT
        // yields reverse order of arrival... PREPEND stacks, SHIFT pops
        // the most recent.
        let mut d = DequeStore::new();
        for i in 1..=3 {
            d.prepend("s", Value::Int(i));
        }
        assert_eq!(d.shift("s"), Value::Int(3));
        assert_eq!(d.shift("s"), Value::Int(2));
        assert_eq!(d.shift("s"), Value::Int(1));
    }

    #[test]
    fn examine_does_not_remove() {
        let mut d = DequeStore::new();
        d.append("x", Value::Int(7));
        d.append("x", Value::Int(8));
        assert_eq!(d.examine_front("x"), Value::Int(7));
        assert_eq!(d.examine_end("x"), Value::Int(8));
        assert_eq!(d.len("x"), 2);
    }

    #[test]
    fn missing_deques_read_as_none() {
        let mut d = DequeStore::new();
        assert_eq!(d.examine_front("ghost"), Value::None);
        assert_eq!(d.pop("ghost"), Value::None);
        assert_eq!(d.len("ghost"), 0);
    }

    #[test]
    fn counter_pattern_from_section_viii_b() {
        // PREPEND(δ, SHIFT(δ) + 1) — the O(1) counter.
        let mut d = DequeStore::new();
        d.prepend("counter", Value::Int(0));
        for _ in 0..5 {
            let v = d.shift("counter").as_int().unwrap();
            d.prepend("counter", Value::Int(v + 1));
        }
        assert_eq!(d.examine_front("counter"), Value::Int(5));
        assert_eq!(d.len("counter"), 1); // O(1) space, not O(n) states
    }

    #[test]
    fn names_lists_touched_deques() {
        let mut d = DequeStore::new();
        d.append("b", Value::Int(1));
        d.append("a", Value::Int(2));
        let names: Vec<_> = d.deques.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["a", "b"]); // deterministic order
    }
}
