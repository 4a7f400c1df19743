//! Ready-made scenarios from the paper: the example topologies of
//! Figures 3 and 4, the enterprise case study of Figures 8 and 9, and
//! the attack descriptions of Figures 5, 6, 10, and 12 (plus the §VIII
//! expressiveness examples) as DSL sources.

pub mod attacks;

use crate::model::{AttackModel, CapabilitySet, SystemModel};
use attain_openflow::MacAddr;
use std::net::Ipv4Addr;

/// A packaged scenario: a system model plus an attacker capabilities
/// model.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The system model `(C, S, H, N_D, N_C)`.
    pub system: SystemModel,
    /// The attacker capabilities `Γ_{N_C}`.
    pub attack_model: AttackModel,
}

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

/// The paper's Figure 3 example data plane: three hosts, two switches
/// (`h1`,`h2` on `s1`; `s1`–`s2`; `h3` on `s2`), plus one controller so
/// the model validates.
// A fixed topology, which `figure3_matches_paper_shape` pins.
#[allow(clippy::expect_used)]
pub fn figure3_network() -> Scenario {
    let mut m = SystemModel::new();
    let c1 = m.add_controller("c1").expect("fresh model");
    let s1 = m.add_switch("s1").expect("fresh model");
    let s2 = m.add_switch("s2").expect("fresh model");
    let h1 = m
        .add_host("h1", Some(ip(1)), Some(MacAddr::from_low(1)))
        .expect("fresh model");
    let h2 = m
        .add_host("h2", Some(ip(2)), Some(MacAddr::from_low(2)))
        .expect("fresh model");
    let h3 = m
        .add_host("h3", Some(ip(3)), Some(MacAddr::from_low(3)))
        .expect("fresh model");
    m.add_host_link(h1, s1, 1).expect("valid link");
    m.add_host_link(h2, s1, 2).expect("valid link");
    m.add_switch_link(s1, 3, s2, 1).expect("valid link");
    m.add_host_link(h3, s2, 2).expect("valid link");
    m.add_connection(c1, s1).expect("fresh connection");
    m.add_connection(c1, s2).expect("fresh connection");
    m.validate().expect("figure 3 is functional");
    let attack_model = AttackModel::uniform(&m, CapabilitySet::no_tls());
    Scenario {
        system: m,
        attack_model,
    }
}

/// The paper's Figure 4 example control plane: two controllers, four
/// switches, `N_C = {(c1,s1..s4), (c2,s3), (c2,s4)}` (hosts added so the
/// model validates).
// A fixed topology, which `figure4_has_six_connections` pins.
#[allow(clippy::expect_used)]
pub fn figure4_network() -> Scenario {
    let mut m = SystemModel::new();
    let c1 = m.add_controller("c1").expect("fresh model");
    let c2 = m.add_controller("c2").expect("fresh model");
    let switches: Vec<_> = (1..=4)
        .map(|i| m.add_switch(&format!("s{i}")).expect("fresh model"))
        .collect();
    let h1 = m.add_host("h1", Some(ip(1)), None).expect("fresh model");
    let h2 = m.add_host("h2", Some(ip(2)), None).expect("fresh model");
    m.add_host_link(h1, switches[0], 1).expect("valid link");
    m.add_host_link(h2, switches[3], 1).expect("valid link");
    for &s in &switches {
        m.add_connection(c1, s).expect("fresh connection");
    }
    m.add_connection(c2, switches[2]).expect("fresh connection");
    m.add_connection(c2, switches[3]).expect("fresh connection");
    m.validate().expect("figure 4 is functional");
    let attack_model = AttackModel::uniform(&m, CapabilitySet::no_tls());
    Scenario {
        system: m,
        attack_model,
    }
}

/// The enterprise case-study network of Figures 8 and 9 (§VII-A):
///
/// * `h1` public web server, `h2` Internet gateway — the *external*
///   segment on `s1`;
/// * `s2` the DMZ firewall switch (`s1`↔`s2` on `s2`'s port 1);
/// * `h3`,`h4` internal servers on `s3`; `h5`,`h6` workstations on `s4`;
/// * one controller `c1` with a connection to every switch
///   (`N_C = {(c1,s1),(c1,s2),(c1,s3),(c1,s4)}`).
///
/// Hosts are `10.0.0.1`–`10.0.0.6` with MACs `…:01`–`…:06`, matching the
/// simulator's assignment so attack descriptions can name either.
/// All control connections are plain TCP (`Γ_NoTLS`), as in the
/// experiments.
// A fixed topology, which `enterprise_matches_figures_8_and_9` pins.
#[allow(clippy::expect_used)]
pub fn enterprise_network() -> Scenario {
    let mut m = SystemModel::new();
    let c1 = m.add_controller("c1").expect("fresh model");
    // Hosts first: the simulator derives MACs from node order.
    let hosts: Vec<_> = (1..=6)
        .map(|i| {
            m.add_host(
                &format!("h{i}"),
                Some(ip(i)),
                Some(MacAddr::from_low(i as u64)),
            )
            .expect("fresh model")
        })
        .collect();
    let s1 = m.add_switch("s1").expect("fresh model");
    let s2 = m.add_switch("s2").expect("fresh model");
    let s3 = m.add_switch("s3").expect("fresh model");
    let s4 = m.add_switch("s4").expect("fresh model");
    // s1: p1 h1, p2 h2, p3 s2.
    m.add_host_link(hosts[0], s1, 1).expect("valid link");
    m.add_host_link(hosts[1], s1, 2).expect("valid link");
    m.add_switch_link(s1, 3, s2, 1).expect("valid link");
    // s2: p1 s1 (external side), p2 s3.
    m.add_switch_link(s2, 2, s3, 1).expect("valid link");
    // s3: p1 s2, p2 h3, p3 h4, p4 s4.
    m.add_host_link(hosts[2], s3, 2).expect("valid link");
    m.add_host_link(hosts[3], s3, 3).expect("valid link");
    m.add_switch_link(s3, 4, s4, 1).expect("valid link");
    // s4: p1 s3, p2 h5, p3 h6.
    m.add_host_link(hosts[4], s4, 2).expect("valid link");
    m.add_host_link(hosts[5], s4, 3).expect("valid link");
    for s in [s1, s2, s3, s4] {
        m.add_connection(c1, s).expect("fresh connection");
    }
    m.validate().expect("figure 8/9 is functional");
    let attack_model = AttackModel::uniform(&m, CapabilitySet::no_tls());
    Scenario {
        system: m,
        attack_model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;

    #[test]
    fn figure3_matches_paper_shape() {
        let s = figure3_network();
        assert_eq!(s.system.switches().count(), 2);
        assert_eq!(s.system.hosts().count(), 3);
        assert_eq!(s.system.data_plane().len(), 4);
    }

    #[test]
    fn figure4_has_six_connections() {
        let s = figure4_network();
        assert_eq!(s.system.connection_count(), 6);
        assert!(s.system.connection_by_names("c2", "s4").is_some());
        assert!(s.system.connection_by_names("c2", "s1").is_none());
    }

    #[test]
    fn enterprise_matches_figures_8_and_9() {
        let s = enterprise_network();
        assert_eq!(s.system.controllers().count(), 1);
        assert_eq!(s.system.switches().count(), 4);
        assert_eq!(s.system.hosts().count(), 6);
        assert_eq!(s.system.connection_count(), 4);
        // N_C in figure order.
        for (i, sw) in ["s1", "s2", "s3", "s4"].iter().enumerate() {
            assert_eq!(s.system.connection_by_names("c1", sw).map(|c| c.0), Some(i));
        }
        // The DMZ firewall switch's external port is 1.
        let (_, s2) = s.system.switches().nth(1).unwrap();
        assert_eq!(s2.ports[0], 1);
    }

    #[test]
    fn all_bundled_attacks_compile_against_the_enterprise_scenario() {
        let s = enterprise_network();
        for (name, source) in attacks::ALL {
            let compiled = dsl::compile(source, &s.system, &s.attack_model);
            assert!(
                compiled.is_ok(),
                "attack {name} failed to compile: {}",
                compiled.unwrap_err()
            );
        }
    }

    #[test]
    fn figure10_attack_has_one_absorbing_start_state() {
        let s = enterprise_network();
        let atk = dsl::compile(attacks::FLOW_MOD_SUPPRESSION, &s.system, &s.attack_model).unwrap();
        assert_eq!(atk.states().len(), 1);
        assert_eq!(atk.graph.absorbing, vec![0]);
        assert!(atk.graph.end.is_empty()); // it has a rule: absorbing, not end
                                           // The single rule watches all four connections.
        assert_eq!(atk.attack.states[0].rules[0].connections.len(), 4);
    }

    #[test]
    fn figure12_attack_is_a_three_state_chain() {
        let s = enterprise_network();
        let atk =
            dsl::compile(attacks::CONNECTION_INTERRUPTION, &s.system, &s.attack_model).unwrap();
        assert_eq!(atk.states().len(), 3);
        assert_eq!(atk.graph.edges.len(), 2);
        assert_eq!(atk.graph.absorbing, vec![2]);
        assert!(atk.graph.unreachable_states().is_empty());
    }

    #[test]
    fn figure5_trivial_attack_is_an_end_state() {
        let s = enterprise_network();
        let atk = dsl::compile(attacks::TRIVIAL_PASS, &s.system, &s.attack_model).unwrap();
        assert_eq!(atk.graph.end, vec![0]);
    }
}
