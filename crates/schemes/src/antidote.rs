//! The kernel-hardening host agents: Anticap and Antidote.

use std::time::Duration;

use arpshield_host::{ArpVerdict, HostAgent, HostApi};
use arpshield_netsim::hash::FastMap;
use arpshield_packet::{ArpOp, ArpPacket, Ipv4Addr, MacAddr};

use crate::alert::{Alert, AlertKind, AlertLog};
use crate::work;

/// Anticap-style kernel filter: drop ARP replies this host never asked
/// for.
///
/// Prevention, not detection — rejected replies simply vanish, exactly as
/// the kernel patch behaves. The weaknesses the analysis attributes to it
/// are reproduced: it breaks legitimate gratuitous updates, and the
/// reply-race variant sails through because the forged reply *is*
/// solicited.
#[derive(Debug)]
pub struct AnticapHook {
    log: AlertLog,
}

const SCHEME_ANTICAP: &str = "anticap";

impl AnticapHook {
    /// Creates the agent, reporting drops into `log`.
    pub fn new(log: AlertLog) -> Self {
        AnticapHook { log }
    }
}

impl HostAgent for AnticapHook {
    fn on_arp_rx(&mut self, api: &mut HostApi<'_, '_>, arp: &ArpPacket) -> ArpVerdict {
        api.add_work(work::INSPECT);
        if arp.op == ArpOp::Reply && !api.is_resolving(arp.sender_ip) {
            self.log.raise(Alert {
                at: api.now(),
                scheme: SCHEME_ANTICAP,
                kind: AlertKind::UnsolicitedReply,
                subject_ip: Some(arp.sender_ip),
                observed_mac: Some(arp.sender_mac),
                expected_mac: None,
            });
            return ArpVerdict::Drop;
        }
        ArpVerdict::Continue
    }
}

const SCHEME_ANTIDOTE: &str = "antidote";
const PROBE_WINDOW: Duration = Duration::from_millis(300);

#[derive(Debug)]
struct Takeover {
    challenger: MacAddr,
    /// Incumbent probes still to re-issue before accepting the
    /// challenger on silence.
    retries_left: u32,
}

/// Antidote-style kernel patch: before letting a reply *replace* an
/// existing binding, probe the previously known MAC. If the old station
/// still answers, the replacement is rejected (and the new claimant
/// presumed an attacker); if it stays silent, the change is accepted.
///
/// Catches rebinding attacks even when solicited — but cannot protect an
/// entry that never existed (first-contact forgery), and a patient
/// attacker who waits for the victim's cache to empty wins anyway. Both
/// weaknesses are visible in the coverage matrix.
#[derive(Debug)]
pub struct AntidoteHook {
    log: AlertLog,
    /// Candidate rebinding per IP: the MAC that wants to take over.
    pending: FastMap<Ipv4Addr, Takeover>,
    /// Extra incumbent probes per takeover attempt. 0 reproduces the
    /// classic single-probe patch; lossy links want more, since a lost
    /// probe otherwise hands the binding to the challenger.
    probe_retries: u32,
}

impl AntidoteHook {
    /// Creates the agent, reporting rejections into `log`.
    pub fn new(log: AlertLog) -> Self {
        AntidoteHook { log, pending: FastMap::default(), probe_retries: 0 }
    }

    /// Enables incumbent-probe re-issue on silent windows (for lossy
    /// links).
    pub fn with_probe_retries(mut self, retries: u32) -> Self {
        self.probe_retries = retries;
        self
    }
}

impl HostAgent for AntidoteHook {
    fn on_arp_rx(&mut self, api: &mut HostApi<'_, '_>, arp: &ArpPacket) -> ArpVerdict {
        api.add_work(work::INSPECT);
        if arp.sender_ip.is_unspecified() {
            return ArpVerdict::Continue;
        }
        let current = api.cache_lookup(arp.sender_ip);
        let Some(old_mac) = current else {
            return ArpVerdict::Continue; // no incumbent to defend
        };
        if arp.sender_mac == old_mac {
            // The incumbent speaks. If a takeover probe was in flight,
            // the old station is alive — reject the challenger.
            if let Some(takeover) = self.pending.remove(&arp.sender_ip) {
                self.log.raise(Alert {
                    at: api.now(),
                    scheme: SCHEME_ANTIDOTE,
                    kind: AlertKind::ReplaceRejected,
                    subject_ip: Some(arp.sender_ip),
                    observed_mac: Some(takeover.challenger),
                    expected_mac: Some(old_mac),
                });
            }
            return ArpVerdict::Continue;
        }
        // A different MAC wants the binding.
        if self.pending.contains_key(&arp.sender_ip) {
            return ArpVerdict::Drop; // probe already in flight; hold the line
        }
        self.pending.insert(
            arp.sender_ip,
            Takeover { challenger: arp.sender_mac, retries_left: self.probe_retries },
        );
        api.add_work(work::PROBE);
        api.send_arp_probe(arp.sender_ip);
        api.schedule(PROBE_WINDOW, arp.sender_ip.to_u32());
        ArpVerdict::Drop
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, payload: u32) {
        let ip = Ipv4Addr::from_u32(payload);
        // Silence may be a lost probe rather than a dead incumbent:
        // re-probe while retries remain before conceding the binding.
        if let Some(takeover) = self.pending.get_mut(&ip) {
            if takeover.retries_left > 0 {
                takeover.retries_left -= 1;
                api.add_work(work::PROBE);
                api.send_arp_probe(ip);
                api.schedule(PROBE_WINDOW, payload);
                return;
            }
        }
        if let Some(takeover) = self.pending.remove(&ip) {
            // The incumbent stayed silent through every window: accept
            // the new binding (station genuinely moved / NIC replaced).
            api.install_verified_binding(ip, takeover.challenger);
        }
    }
}

#[cfg(test)]
mod tests {
    // The agents' interesting behaviour requires live hosts exchanging
    // frames; covered in the crate integration tests (`tests/schemes.rs`)
    // and the coverage-matrix experiment.
}
