//! Attack scenarios: the standard LAN plus one attacker.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield_attacks::{ArpPoisoner, MitmRelay, MitmRelayConfig, PoisonConfig, PoisonVariant};
use arpshield_netsim::SimTime;

use crate::metrics::{CacheSampler, SampleLog, Watch};
use crate::scenario::lan::{addr, build, BuiltLan, ScenarioConfig};

/// When the attacker (if any) first acts — after the warm-up in which
/// legitimate bindings circulate.
const ATTACK_START: Duration = Duration::from_secs(3);

/// Which attack an [`AttackScenario`] mounts against the standard LAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackSpec {
    /// One ARP-poisoning variant, re-emitted every 2 s, targeting the
    /// victim's binding of the gateway.
    Poison(PoisonVariant),
    /// Full-duplex MITM between the victim and the gateway.
    Mitm,
}

impl AttackSpec {
    /// Report label.
    pub fn label(&self) -> String {
        match self {
            AttackSpec::Poison(v) => v.label().to_string(),
            AttackSpec::Mitm => "mitm-relay".to_string(),
        }
    }
}

/// A runnable attack scenario.
#[derive(Debug, Clone, Copy)]
pub struct AttackScenario {
    /// LAN parameters.
    pub config: ScenarioConfig,
    /// The attack to mount.
    pub spec: AttackSpec,
}

/// Everything an attack run leaves behind, ready for scoring.
#[derive(Debug)]
pub struct CompletedRun {
    /// The LAN after the run (handles still live for inspection).
    pub lan: BuiltLan,
    /// Ground-truth cache samples of the victim.
    pub samples: Rc<RefCell<SampleLog>>,
    /// When the attacker was scheduled to first act.
    pub attack_start: SimTime,
}

impl AttackScenario {
    /// A poisoning scenario.
    pub fn poisoning(config: ScenarioConfig, variant: PoisonVariant) -> Self {
        AttackScenario { config, spec: AttackSpec::Poison(variant) }
    }

    /// A man-in-the-middle scenario.
    pub fn mitm(config: ScenarioConfig) -> Self {
        AttackScenario { config, spec: AttackSpec::Mitm }
    }

    /// Builds the LAN, injects the attacker, runs to completion.
    pub fn run(self) -> CompletedRun {
        let config = self.config;
        let mut lan = build(config);
        lan.sim.tracer().annotate("attack", &self.spec.label());

        // Sampler watching the victim's binding of the gateway.
        let watch = Watch {
            host: lan.victim().clone(),
            ip: addr::GATEWAY_IP,
            legitimate_mac: addr::gateway_mac(),
        };
        let (sampler, samples) = CacheSampler::new(vec![watch], Duration::from_millis(50));
        lan.attach(Box::new(sampler));

        let truth = lan.truth.clone();
        let fast = Duration::from_micros(1); // attacker fast path; see attach_with_latency
        match self.spec {
            AttackSpec::Poison(variant) => {
                lan.attach_with_latency(
                    Box::new(ArpPoisoner::new(
                        PoisonConfig {
                            attacker_mac: addr::attacker_mac(),
                            variant,
                            victim_ip: addr::GATEWAY_IP,
                            claimed_mac: if variant == PoisonVariant::BlackholeDos {
                                arpshield_packet::MacAddr::new([0x02, 0xde, 0xad, 0, 0, 1])
                            } else {
                                addr::attacker_mac()
                            },
                            target: Some((addr::host_ip(0), addr::host_mac(0))),
                            start_delay: ATTACK_START,
                            repeat: Some(Duration::from_secs(2)),
                        },
                        truth,
                    )),
                    fast,
                );
            }
            AttackSpec::Mitm => {
                lan.attach_with_latency(
                    Box::new(MitmRelay::new(
                        MitmRelayConfig {
                            attacker_mac: addr::attacker_mac(),
                            side_a: (addr::GATEWAY_IP, addr::gateway_mac()),
                            side_b: (addr::host_ip(0), addr::host_mac(0)),
                            start_delay: ATTACK_START,
                            repeat: Duration::from_secs(2),
                        },
                        truth,
                    )),
                    fast,
                );
            }
        }

        let deadline = SimTime::ZERO + config.duration;
        lan.sim.run_until(deadline);
        CompletedRun { lan, samples, attack_start: SimTime::ZERO + ATTACK_START }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arpshield_schemes::SchemeKind;

    #[test]
    fn undefended_lan_gets_poisoned() {
        let run = AttackScenario::poisoning(
            ScenarioConfig::new(5).with_hosts(3),
            PoisonVariant::UnicastRequestProbeStuffing,
        )
        .run();
        assert!(run.samples.borrow().ever_poisoned());
        assert!(run.samples.borrow().first_poisoned_at().unwrap() >= run.attack_start);
    }

    #[test]
    fn sarp_lan_is_not_poisoned() {
        let run = AttackScenario::poisoning(
            ScenarioConfig::new(6).with_hosts(3).with_scheme(SchemeKind::SArp),
            PoisonVariant::GratuitousReply,
        )
        .run();
        assert!(!run.samples.borrow().ever_poisoned());
        assert!(!run.lan.alerts.is_empty(), "S-ARP logs the rejected forgeries");
    }

    #[test]
    fn mitm_poisons_and_relays() {
        let run = AttackScenario::mitm(
            ScenarioConfig::new(7)
                .with_hosts(2)
                .with_policy(arpshield_host::ArpPolicy::Promiscuous),
        )
        .run();
        assert!(run.samples.borrow().ever_poisoned());
        // Victim connectivity largely preserved (covert relay).
        let p = run.lan.pings[0].borrow();
        assert!(p.received as f64 / p.sent as f64 > 0.85, "{}/{}", p.received, p.sent);
    }
}
