//! The control-plane interposition hook.
//!
//! Every message on every control-plane connection passes through the
//! simulation's registered [`Interposer`] — exactly where the paper's
//! runtime injector proxy sits (§VI-B2: "a practitioner need only modify
//! his or her network's switch configurations to point to the proxy as
//! the SDN controller"). The default (no interposer) forwards verbatim.

use crate::command::HostCommand;
use crate::engine::ConnId;
use crate::time::SimTime;
use attain_openflow::Frame;
use std::any::Any;
use std::fmt;

/// Which way a control-plane message is travelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// From the switch (client) toward the controller (server).
    SwitchToController,
    /// From the controller toward the switch.
    ControllerToSwitch,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::SwitchToController => write!(f, "switch→controller"),
            Direction::ControllerToSwitch => write!(f, "controller→switch"),
        }
    }
}

/// A message offered to the interposer.
#[derive(Debug, Clone, Copy)]
pub struct ProxiedMessage<'a> {
    /// The control connection the message traverses.
    pub conn: ConnId,
    /// The direction of travel.
    pub direction: Direction,
    /// The encoded OpenFlow message (header + body); cloning the
    /// [`Frame`] to keep or forward it is a refcount bump, not a copy.
    pub frame: &'a Frame,
    /// Current virtual time (the message's arrival at the proxy).
    pub now: SimTime,
}

/// One message the interposer wants delivered.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Target connection (usually the original; `INJECTNEWMESSAGE` may
    /// name any connection).
    pub conn: ConnId,
    /// Delivery direction.
    pub direction: Direction,
    /// Encoded message to deliver.
    pub frame: Frame,
    /// Extra delay beyond the channel latency (`DELAYMESSAGE`).
    pub extra_delay: SimTime,
}

/// Everything an interposer callback wants done.
#[derive(Debug, Default)]
pub struct InterposerActions {
    /// Messages to put on the wire.
    pub deliveries: Vec<Delivery>,
    /// Workload commands to execute now (`SYSCMD`).
    pub commands: Vec<HostCommand>,
    /// Ask to be woken at this absolute time (`SLEEP` support).
    pub wakeup: Option<SimTime>,
}

impl InterposerActions {
    /// No actions at all (drops the triggering message).
    pub fn drop_message() -> InterposerActions {
        InterposerActions::default()
    }

    /// Forward the triggering message unchanged (shares the frame's
    /// buffer — no byte copy).
    pub fn pass(msg: &ProxiedMessage<'_>) -> InterposerActions {
        InterposerActions {
            deliveries: vec![Delivery {
                conn: msg.conn,
                direction: msg.direction,
                frame: msg.frame.clone(),
                extra_delay: SimTime::ZERO,
            }],
            commands: Vec::new(),
            wakeup: None,
        }
    }

    /// Whether these actions are exactly [`InterposerActions::pass`] of
    /// `msg`: the same bytes on the same connection, undelayed, and
    /// nothing else. Applying them schedules what no interposer would.
    pub(crate) fn is_pass(&self, msg: &ProxiedMessage<'_>) -> bool {
        match &self.deliveries[..] {
            [d] => {
                self.commands.is_empty()
                    && self.wakeup.is_none()
                    && d.conn == msg.conn
                    && d.direction == msg.direction
                    && d.extra_delay == SimTime::ZERO
                    && d.frame == *msg.frame
            }
            _ => false,
        }
    }
}

/// A control-plane interposer (the runtime injector's seat).
///
/// Implementations must be deterministic; the simulator calls them in
/// total message order, which is the property the paper's single,
/// centralized injector instance provides (§VI-C). `Any` lets a caller
/// read its own interposer back out of a finished simulation.
pub trait Interposer: Send + Any {
    /// A message arrived at the proxy; decide its fate.
    fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions;

    /// A previously requested wakeup fired.
    fn on_wakeup(&mut self, now: SimTime) -> InterposerActions {
        let _ = now;
        InterposerActions::default()
    }

    /// An independent copy of this interposer in its current state, so
    /// a simulation carrying it can fork; `None` (the default) for one
    /// that cannot be copied, whose simulations then never fork.
    fn fork(&self) -> Option<Box<dyn Interposer>> {
        None
    }
}

/// The trivial pass-everything interposer — the paper's Figure 5
/// "attack" that models normal control-plane operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassThrough;

impl Interposer for PassThrough {
    fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions {
        InterposerActions::pass(&msg)
    }

    fn fork(&self) -> Option<Box<dyn Interposer>> {
        Some(Box::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_through_forwards_verbatim() {
        let mut p = PassThrough;
        let frame = Frame::new(vec![1u8, 2, 3]);
        let msg = ProxiedMessage {
            conn: ConnId(3),
            direction: Direction::SwitchToController,
            frame: &frame,
            now: SimTime::from_secs(1),
        };
        let actions = p.on_message(msg);
        assert_eq!(actions.deliveries.len(), 1);
        let d = &actions.deliveries[0];
        assert_eq!(d.conn, ConnId(3));
        assert_eq!(d.direction, Direction::SwitchToController);
        assert_eq!(d.frame, frame);
        assert_eq!(d.extra_delay, SimTime::ZERO);
        assert!(actions.commands.is_empty());
        assert!(actions.wakeup.is_none());
    }

    #[test]
    fn drop_message_produces_nothing() {
        let a = InterposerActions::drop_message();
        assert!(a.deliveries.is_empty());
    }
}
