//! Instance and spot-request lifecycle state machines.
//!
//! These are the state machines of the paper's Figures 3.1 (on-demand
//! instances) and 3.2 (spot instance requests). Every transition in the
//! simulator goes through [`OdState::can_transition_to`] /
//! [`SpotRequestState::can_transition_to`], and every state change is
//! recorded with its timestamp, exactly as SpotLight's prototype logged
//! "all states and status changes timestamps" (Chapter 4).
//!
//! Both machines can be exported as Graphviz DOT (`repro fig-3-1` /
//! `fig-3-2` regenerate the figures from this module).

use crate::time::SimTime;
use std::fmt;

/// States of an on-demand instance (Figure 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OdState {
    /// Request submitted, not yet running.
    Pending,
    /// Request denied with `InsufficientInstanceCapacity` (terminal).
    Denied,
    /// Instance is running.
    Running,
    /// User requested termination; instance is shutting down.
    ShuttingDown,
    /// Instance terminated (terminal).
    Terminated,
}

impl OdState {
    /// All states, in diagram order.
    pub const ALL: [OdState; 5] = [
        OdState::Pending,
        OdState::Denied,
        OdState::Running,
        OdState::ShuttingDown,
        OdState::Terminated,
    ];

    /// The EC2 name of the state.
    pub const fn name(self) -> &'static str {
        match self {
            OdState::Pending => "pending",
            OdState::Denied => "denied",
            OdState::Running => "running",
            OdState::ShuttingDown => "shutting-down",
            OdState::Terminated => "terminated",
        }
    }

    /// Whether the state machine allows moving from `self` to `next`.
    pub fn can_transition_to(self, next: OdState) -> bool {
        use OdState::*;
        matches!(
            (self, next),
            (Pending, Running)
                | (Pending, Denied)
                | (Running, ShuttingDown)
                | (ShuttingDown, Terminated)
        )
    }

    /// True for states with no outgoing transitions.
    pub fn is_terminal(self) -> bool {
        matches!(self, OdState::Denied | OdState::Terminated)
    }

    /// The legal transitions of Figure 3.1, as `(from, to, label)` edges.
    pub fn edges() -> Vec<(OdState, OdState, &'static str)> {
        use OdState::*;
        vec![
            (Pending, Running, "accepted"),
            (Pending, Denied, "InsufficientInstanceCapacity"),
            (Running, ShuttingDown, "terminate"),
            (ShuttingDown, Terminated, "shutdown complete"),
        ]
    }

    /// Renders Figure 3.1 as Graphviz DOT.
    pub fn to_dot() -> String {
        render_dot(
            "od_instance",
            &OdState::ALL.map(|s| (s.name(), s.is_terminal())),
            &OdState::edges()
                .into_iter()
                .map(|(a, b, l)| (a.name(), b.name(), l))
                .collect::<Vec<_>>(),
        )
    }
}

impl fmt::Display for OdState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// States of a spot instance request (Figure 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpotRequestState {
    /// Request submitted; parameters being evaluated.
    PendingEvaluation,
    /// Request malformed (terminal).
    BadParameters,
    /// Internal error (terminal).
    SystemError,
    /// Bid is below the current spot price; waiting.
    PriceTooLow,
    /// The market has no capacity for new spot instances; waiting.
    CapacityNotAvailable,
    /// Too many bids tie at the spot price for the remaining capacity;
    /// waiting.
    CapacityOversubscribed,
    /// Accepted; waiting for an instance slot.
    PendingFulfillment,
    /// Cancelled before an instance was launched (terminal).
    CanceledBeforeFulfillment,
    /// An instance was launched for this request.
    Fulfilled,
    /// Request cancelled while its instance keeps running (terminal).
    RequestCanceledAndInstanceRunning,
    /// The spot price rose above the bid; two-minute warning under way.
    MarkedForTermination,
    /// Instance reclaimed because the spot price exceeded the bid
    /// (terminal).
    InstanceTerminatedByPrice,
    /// Instance terminated by its owner (terminal).
    InstanceTerminatedByUser,
}

impl SpotRequestState {
    /// All states, in diagram order.
    pub const ALL: [SpotRequestState; 13] = [
        SpotRequestState::PendingEvaluation,
        SpotRequestState::BadParameters,
        SpotRequestState::SystemError,
        SpotRequestState::PriceTooLow,
        SpotRequestState::CapacityNotAvailable,
        SpotRequestState::CapacityOversubscribed,
        SpotRequestState::PendingFulfillment,
        SpotRequestState::CanceledBeforeFulfillment,
        SpotRequestState::Fulfilled,
        SpotRequestState::RequestCanceledAndInstanceRunning,
        SpotRequestState::MarkedForTermination,
        SpotRequestState::InstanceTerminatedByPrice,
        SpotRequestState::InstanceTerminatedByUser,
    ];

    /// The EC2 status string of the state.
    pub const fn name(self) -> &'static str {
        use SpotRequestState::*;
        match self {
            PendingEvaluation => "pending-evaluation",
            BadParameters => "bad-parameters",
            SystemError => "system-error",
            PriceTooLow => "price-too-low",
            CapacityNotAvailable => "capacity-not-available",
            CapacityOversubscribed => "capacity-oversubscribed",
            PendingFulfillment => "pending-fulfillment",
            CanceledBeforeFulfillment => "canceled-before-fulfillment",
            Fulfilled => "fulfilled",
            RequestCanceledAndInstanceRunning => "request-canceled-and-instance-running",
            MarkedForTermination => "marked-for-termination",
            InstanceTerminatedByPrice => "instance-terminated-by-price",
            InstanceTerminatedByUser => "instance-terminated-by-user",
        }
    }

    /// Whether the request is still waiting in the queue (may later be
    /// fulfilled or cancelled).
    pub fn is_held(self) -> bool {
        use SpotRequestState::*;
        matches!(
            self,
            PriceTooLow | CapacityNotAvailable | CapacityOversubscribed | PendingFulfillment
        )
    }

    /// True for states with no outgoing transitions.
    pub fn is_terminal(self) -> bool {
        use SpotRequestState::*;
        matches!(
            self,
            BadParameters
                | SystemError
                | CanceledBeforeFulfillment
                | RequestCanceledAndInstanceRunning
                | InstanceTerminatedByPrice
                | InstanceTerminatedByUser
        )
    }

    /// Whether an instance is currently running for this request.
    pub fn instance_running(self) -> bool {
        matches!(
            self,
            SpotRequestState::Fulfilled | SpotRequestState::MarkedForTermination
        )
    }

    /// Whether the state machine allows moving from `self` to `next`.
    pub fn can_transition_to(self, next: SpotRequestState) -> bool {
        use SpotRequestState::*;
        let held_outcomes = |n: SpotRequestState| {
            matches!(
                n,
                PriceTooLow
                    | CapacityNotAvailable
                    | CapacityOversubscribed
                    | PendingFulfillment
                    | CanceledBeforeFulfillment
                    | Fulfilled
            )
        };
        match self {
            PendingEvaluation => held_outcomes(next) || matches!(next, BadParameters | SystemError),
            // Held requests are re-evaluated as conditions change and can
            // move between the holding statuses, be cancelled, or be
            // fulfilled.
            PriceTooLow | CapacityNotAvailable | CapacityOversubscribed | PendingFulfillment => {
                held_outcomes(next)
            }
            Fulfilled => matches!(
                next,
                MarkedForTermination | InstanceTerminatedByUser | RequestCanceledAndInstanceRunning
            ),
            MarkedForTermination => {
                matches!(next, InstanceTerminatedByPrice | InstanceTerminatedByUser)
            }
            BadParameters
            | SystemError
            | CanceledBeforeFulfillment
            | RequestCanceledAndInstanceRunning
            | InstanceTerminatedByPrice
            | InstanceTerminatedByUser => false,
        }
    }

    /// The legal transitions of Figure 3.2, as `(from, to, label)` edges.
    pub fn edges() -> Vec<(SpotRequestState, SpotRequestState, &'static str)> {
        use SpotRequestState::*;
        let mut edges = vec![
            (PendingEvaluation, BadParameters, "invalid"),
            (PendingEvaluation, SystemError, "error"),
            (PendingEvaluation, PriceTooLow, "bid < price"),
            (PendingEvaluation, CapacityNotAvailable, "no capacity"),
            (PendingEvaluation, CapacityOversubscribed, "oversubscribed"),
            (PendingEvaluation, PendingFulfillment, "accepted"),
            (PendingFulfillment, Fulfilled, "launched"),
            (PendingFulfillment, CanceledBeforeFulfillment, "cancelled"),
            (Fulfilled, MarkedForTermination, "price > bid"),
            (Fulfilled, InstanceTerminatedByUser, "terminate"),
            (
                Fulfilled,
                RequestCanceledAndInstanceRunning,
                "cancel request",
            ),
            (MarkedForTermination, InstanceTerminatedByPrice, "revoked"),
            (MarkedForTermination, InstanceTerminatedByUser, "terminate"),
        ];
        for held in [PriceTooLow, CapacityNotAvailable, CapacityOversubscribed] {
            edges.push((held, PendingFulfillment, "re-evaluated"));
            edges.push((held, CanceledBeforeFulfillment, "cancelled"));
        }
        edges
    }

    /// Renders Figure 3.2 as Graphviz DOT.
    pub fn to_dot() -> String {
        render_dot(
            "spot_request",
            &SpotRequestState::ALL.map(|s| (s.name(), s.is_terminal())),
            &SpotRequestState::edges()
                .into_iter()
                .map(|(a, b, l)| (a.name(), b.name(), l))
                .collect::<Vec<_>>(),
        )
    }
}

impl fmt::Display for SpotRequestState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn render_dot(name: &str, nodes: &[(&str, bool)], edges: &[(&str, &str, &str)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=LR;");
    for (node, terminal) in nodes {
        let shape = if *terminal { "doublecircle" } else { "box" };
        let _ = writeln!(out, "  \"{node}\" [shape={shape}];");
    }
    for (from, to, label) in edges {
        let _ = writeln!(out, "  \"{from}\" -> \"{to}\" [label=\"{label}\"];");
    }
    out.push_str("}\n");
    out
}

/// A timestamped record of one state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition<S> {
    /// When the transition happened.
    pub at: SimTime,
    /// The state entered.
    pub to: S,
}

/// A state variable that enforces machine legality and logs transitions.
///
/// # Examples
///
/// ```
/// use cloud_sim::lifecycle::{OdState, Tracked};
/// use cloud_sim::time::SimTime;
///
/// let mut st = Tracked::new(OdState::Pending, SimTime::ZERO);
/// st.transition(OdState::Running, SimTime::from_secs(30)).unwrap();
/// assert_eq!(st.current(), OdState::Running);
/// assert_eq!(st.history().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tracked<S> {
    current: S,
    history: Vec<Transition<S>>,
}

/// Error returned on an illegal state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IllegalTransition {
    from: String,
    to: String,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal transition from `{}` to `{}`",
            self.from, self.to
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// A state type with a legality relation; implemented by the two machines
/// in this module.
pub trait StateMachine: Copy + fmt::Display {
    /// Whether the machine allows `self -> next`.
    fn allows(self, next: Self) -> bool;
}

impl StateMachine for OdState {
    fn allows(self, next: Self) -> bool {
        self.can_transition_to(next)
    }
}

impl StateMachine for SpotRequestState {
    fn allows(self, next: Self) -> bool {
        self.can_transition_to(next)
    }
}

impl<S: StateMachine> Tracked<S> {
    /// Starts a tracked state variable in `initial` at time `at`.
    pub fn new(initial: S, at: SimTime) -> Self {
        Tracked {
            current: initial,
            history: vec![Transition { at, to: initial }],
        }
    }

    /// The current state.
    pub fn current(&self) -> S {
        self.current
    }

    /// Every state entered, with timestamps, oldest first.
    pub fn history(&self) -> &[Transition<S>] {
        &self.history
    }

    /// When the current state was entered.
    pub fn since(&self) -> SimTime {
        self.history.last().expect("history never empty").at
    }

    /// Moves to `next` at time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`IllegalTransition`] if the machine forbids the move.
    pub fn transition(&mut self, next: S, at: SimTime) -> Result<(), IllegalTransition> {
        if !self.current.allows(next) {
            return Err(IllegalTransition {
                from: self.current.to_string(),
                to: next.to_string(),
            });
        }
        self.current = next;
        self.history.push(Transition { at, to: next });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn od_happy_path() {
        let mut st = Tracked::new(OdState::Pending, SimTime::ZERO);
        st.transition(OdState::Running, SimTime::from_secs(10))
            .unwrap();
        st.transition(OdState::ShuttingDown, SimTime::from_secs(20))
            .unwrap();
        st.transition(OdState::Terminated, SimTime::from_secs(30))
            .unwrap();
        assert!(st.current().is_terminal());
        assert_eq!(st.history().len(), 4);
    }

    #[test]
    fn od_denied_is_terminal() {
        let mut st = Tracked::new(OdState::Pending, SimTime::ZERO);
        st.transition(OdState::Denied, SimTime::from_secs(1))
            .unwrap();
        assert!(st
            .transition(OdState::Running, SimTime::from_secs(2))
            .is_err());
    }

    #[test]
    fn od_illegal_transitions_rejected() {
        assert!(!OdState::Pending.can_transition_to(OdState::Terminated));
        assert!(!OdState::Running.can_transition_to(OdState::Pending));
        assert!(!OdState::Terminated.can_transition_to(OdState::Running));
    }

    #[test]
    fn spot_revocation_path() {
        use SpotRequestState::*;
        let mut st = Tracked::new(PendingEvaluation, SimTime::ZERO);
        for (s, t) in [
            (PendingFulfillment, 5),
            (Fulfilled, 10),
            (MarkedForTermination, 100),
            (InstanceTerminatedByPrice, 220),
        ] {
            st.transition(s, SimTime::from_secs(t)).unwrap();
        }
        assert!(st.current().is_terminal());
    }

    #[test]
    fn held_states_can_rotate() {
        use SpotRequestState::*;
        assert!(PriceTooLow.can_transition_to(CapacityNotAvailable));
        assert!(CapacityNotAvailable.can_transition_to(Fulfilled));
        assert!(CapacityOversubscribed.can_transition_to(PendingFulfillment));
        assert!(PriceTooLow.is_held());
        assert!(!Fulfilled.is_held());
    }

    #[test]
    fn all_edges_are_legal() {
        for (a, b, _) in OdState::edges() {
            assert!(a.can_transition_to(b), "{a} -> {b} should be legal");
        }
        for (a, b, _) in SpotRequestState::edges() {
            assert!(a.can_transition_to(b), "{a} -> {b} should be legal");
        }
    }

    #[test]
    fn terminal_states_have_no_outgoing_edges() {
        for s in SpotRequestState::ALL {
            if s.is_terminal() {
                for n in SpotRequestState::ALL {
                    assert!(!s.can_transition_to(n), "{s} is terminal but -> {n}");
                }
            }
        }
    }

    #[test]
    fn dot_render_contains_all_states() {
        let dot = SpotRequestState::to_dot();
        for s in SpotRequestState::ALL {
            assert!(dot.contains(s.name()), "missing {s} in DOT");
        }
        assert!(OdState::to_dot().contains("InsufficientInstanceCapacity"));
    }

    #[test]
    fn instance_running_matches_states() {
        assert!(SpotRequestState::Fulfilled.instance_running());
        assert!(SpotRequestState::MarkedForTermination.instance_running());
        assert!(!SpotRequestState::PriceTooLow.instance_running());
    }
}
