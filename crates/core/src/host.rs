//! Host-side data movement: stream sources, sinks and the link model.
//!
//! The host CPU exchanges data with the ring through the switches' direct
//! dedicated ports (§4.2). We model the host side as *streams*: a source
//! queue per host-input port (filled by the application, drained into the
//! switch FIFO at up to one word per port per cycle) and a sink per switch
//! collecting captured outputs.
//!
//! All traffic is metered by a [`LinkModel`]: `Direct` reproduces the
//! APEX-prototype situation (on-chip memories feed the ring at full rate,
//! aggregate ≈3 GB/s for Ring-8 at 200 MHz), `Metered` reproduces the
//! implemented PCI-class 250 MB/s host link of §5.1.

use std::collections::VecDeque;

use systolic_ring_isa::Word16;

use crate::error::ConfigError;
use crate::params::LinkModel;
use crate::stats::Stats;
use crate::switch::SwitchState;

/// Host-side stream endpoints for one machine.
#[derive(Clone, Debug)]
pub struct HostInterface {
    // Crate-visible for the fused block engine, which replays host
    // traffic as cursor arithmetic over these queues (see `crate::fused`).
    pub(crate) sources: Vec<Vec<VecDeque<Word16>>>,
    pub(crate) sinks: Vec<Vec<Vec<Word16>>>,
    pub(crate) sink_open: Vec<Vec<bool>>,
    pub(crate) link: LinkModel,
    pub(crate) credit: f64,
    pub(crate) rotate: usize,
}

impl HostInterface {
    /// A host interface for `switches` switches with `in_ports` input and
    /// `out_ports` output ports each.
    pub fn new(switches: usize, in_ports: usize, out_ports: usize, link: LinkModel) -> Self {
        HostInterface {
            sources: (0..switches)
                .map(|_| (0..in_ports).map(|_| VecDeque::new()).collect())
                .collect(),
            sinks: vec![vec![Vec::new(); out_ports]; switches],
            sink_open: vec![vec![false; out_ports]; switches],
            link,
            credit: 0.0,
            rotate: 0,
        }
    }

    fn check_out_port(&self, switch: usize, port: usize) -> Result<(), ConfigError> {
        if switch >= self.sinks.len() {
            return Err(ConfigError::SwitchOutOfRange {
                switch,
                switches: self.sinks.len(),
            });
        }
        let ports = self.sinks[switch].len();
        if port >= ports {
            return Err(ConfigError::HostPortOutOfRange { port, ports });
        }
        Ok(())
    }

    /// Opens the sink of (`switch`, `port`): the host will drain that
    /// host-output FIFO (one word per cycle) into the sink. Leave a sink
    /// closed when the configuration controller consumes the captures with
    /// `hpop` instead.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn open_sink(&mut self, switch: usize, port: usize) -> Result<(), ConfigError> {
        self.check_out_port(switch, port)?;
        self.sink_open[switch][port] = true;
        Ok(())
    }

    fn check_port(&self, switch: usize, port: usize) -> Result<(), ConfigError> {
        if switch >= self.sources.len() {
            return Err(ConfigError::SwitchOutOfRange {
                switch,
                switches: self.sources.len(),
            });
        }
        let ports = self.sources[switch].len();
        if port >= ports {
            return Err(ConfigError::HostPortOutOfRange { port, ports });
        }
        Ok(())
    }

    /// Appends words to the source stream of (`switch`, `port`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn attach_input<I>(
        &mut self,
        switch: usize,
        port: usize,
        words: I,
    ) -> Result<(), ConfigError>
    where
        I: IntoIterator<Item = Word16>,
    {
        self.check_port(switch, port)?;
        self.sources[switch][port].extend(words);
        Ok(())
    }

    /// Words still queued on the source stream of (`switch`, `port`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn pending_input(&self, switch: usize, port: usize) -> Result<usize, ConfigError> {
        self.check_port(switch, port)?;
        Ok(self.sources[switch][port].len())
    }

    /// Words collected by the sink of (`switch`, `port`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn sink(&self, switch: usize, port: usize) -> Result<&[Word16], ConfigError> {
        self.check_out_port(switch, port)?;
        Ok(&self.sinks[switch][port])
    }

    /// Removes and returns the sink contents of (`switch`, `port`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn take_sink(&mut self, switch: usize, port: usize) -> Result<Vec<Word16>, ConfigError> {
        self.check_out_port(switch, port)?;
        Ok(std::mem::take(&mut self.sinks[switch][port]))
    }

    /// `true` if every source stream has been fully delivered.
    pub fn inputs_drained(&self) -> bool {
        self.sources
            .iter()
            .all(|ports| ports.iter().all(VecDeque::is_empty))
    }

    /// `true` if any sink is open (the host drains captures every cycle).
    pub(crate) fn any_sink_open(&self) -> bool {
        self.sink_open.iter().any(|ports| ports.contains(&true))
    }

    /// Moves words between host streams and switch FIFOs for one cycle.
    pub(crate) fn step(&mut self, switches: &mut [SwitchState], stats: &mut Stats) {
        let (credit, mut allowance) = self.link.allowance(self.credit);
        self.credit = credit;

        let n = switches.len();
        if n == 0 {
            return;
        }
        let start = self.rotate % n;
        self.rotate = self.rotate.wrapping_add(1);
        let mut starved = false;

        // Fill switch host-input FIFOs: at most one word per port per cycle.
        for i in 0..n {
            let s = (start + i) % n;
            for (port, source) in self.sources[s].iter_mut().enumerate() {
                if source.is_empty() {
                    continue;
                }
                if switches[s].host_in[port].is_full() {
                    continue;
                }
                if allowance == 0 {
                    starved = true;
                    continue;
                }
                let word = source.pop_front().expect("checked non-empty");
                switches[s].host_in[port].push(word);
                stats.host_words_in += 1;
                if allowance != usize::MAX {
                    allowance -= 1;
                }
            }
        }

        // Drain host-output FIFOs into open sinks: one word per out-port
        // per cycle.
        for i in 0..n {
            let s = (start + i) % n;
            for port in 0..switches[s].host_out.len() {
                if !self.sink_open[s][port] || switches[s].host_out[port].is_empty() {
                    continue;
                }
                if allowance == 0 {
                    starved = true;
                    continue;
                }
                if let Some(word) = switches[s].host_out[port].pop() {
                    self.sinks[s][port].push(word);
                    stats.host_words_out += 1;
                    if allowance != usize::MAX {
                        allowance -= 1;
                    }
                }
            }
        }

        if starved {
            stats.link_stall_cycles += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: i16) -> Word16 {
        Word16::from_i16(v)
    }

    fn switches(n: usize, width: usize) -> Vec<SwitchState> {
        (0..n).map(|_| SwitchState::new(4, width, 16)).collect()
    }

    #[test]
    fn direct_link_moves_one_word_per_port_per_cycle() {
        let mut host = HostInterface::new(2, 4, 2, LinkModel::Direct);
        let mut sw = switches(2, 2);
        let mut stats = Stats::new(4);
        host.attach_input(0, 0, [w(1), w(2), w(3)]).unwrap();
        host.attach_input(1, 3, [w(9)]).unwrap();
        host.step(&mut sw, &mut stats);
        assert_eq!(sw[0].host_in[0].len(), 1);
        assert_eq!(sw[1].host_in[3].len(), 1);
        assert_eq!(stats.host_words_in, 2);
        host.step(&mut sw, &mut stats);
        host.step(&mut sw, &mut stats);
        assert_eq!(sw[0].host_in[0].len(), 3);
        assert!(host.inputs_drained());
        assert_eq!(stats.link_stall_cycles, 0);
    }

    #[test]
    fn metered_link_throttles() {
        // 2 bytes/cycle = 1 word/cycle across all traffic.
        let mut host = HostInterface::new(
            2,
            2,
            1,
            LinkModel::Metered {
                bytes_per_cycle: 2.0,
            },
        );
        let mut sw = switches(2, 1);
        let mut stats = Stats::new(2);
        host.attach_input(0, 0, vec![w(1); 10]).unwrap();
        host.attach_input(1, 0, vec![w(2); 10]).unwrap();
        for _ in 0..10 {
            host.step(&mut sw, &mut stats);
        }
        assert_eq!(stats.host_words_in, 10);
        assert!(stats.link_stall_cycles > 0);
        // Round-robin start keeps both switches served.
        assert!(sw[0].host_in[0].len() >= 4);
        assert!(sw[1].host_in[0].len() >= 4);
    }

    #[test]
    fn closed_sinks_do_not_drain() {
        let mut host = HostInterface::new(1, 2, 1, LinkModel::Direct);
        let mut sw = switches(1, 1);
        let mut stats = Stats::new(1);
        sw[0].host_out[0].push(w(5));
        host.step(&mut sw, &mut stats);
        assert!(host.sink(0, 0).unwrap().is_empty());
        assert_eq!(sw[0].host_out[0].len(), 1);
        assert_eq!(stats.host_words_out, 0);
    }

    #[test]
    fn drains_captures_into_sinks() {
        let mut host = HostInterface::new(1, 2, 1, LinkModel::Direct);
        let mut sw = switches(1, 1);
        let mut stats = Stats::new(1);
        host.open_sink(0, 0).unwrap();
        assert!(host.open_sink(9, 0).is_err());
        assert!(host.open_sink(0, 5).is_err());
        sw[0].host_out[0].push(w(5));
        sw[0].host_out[0].push(w(6));
        host.step(&mut sw, &mut stats);
        // One word per out-port per cycle.
        assert_eq!(host.sink(0, 0).unwrap(), &[w(5)]);
        host.step(&mut sw, &mut stats);
        assert_eq!(host.take_sink(0, 0).unwrap(), vec![w(5), w(6)]);
        assert!(host.sink(0, 0).unwrap().is_empty());
        assert_eq!(stats.host_words_out, 2);
    }

    #[test]
    fn parallel_out_ports_drain_together() {
        let mut host = HostInterface::new(1, 2, 2, LinkModel::Direct);
        let mut sw = switches(1, 2);
        let mut stats = Stats::new(1);
        host.open_sink(0, 0).unwrap();
        host.open_sink(0, 1).unwrap();
        sw[0].host_out[0].push(w(1));
        sw[0].host_out[1].push(w(2));
        host.step(&mut sw, &mut stats);
        assert_eq!(host.sink(0, 0).unwrap(), &[w(1)]);
        assert_eq!(host.sink(0, 1).unwrap(), &[w(2)]);
        assert_eq!(stats.host_words_out, 2);
    }

    #[test]
    fn full_fifo_backpressures_source() {
        let mut host = HostInterface::new(1, 1, 1, LinkModel::Direct);
        let mut sw = vec![SwitchState::new(4, 1, 2)];
        // Switch has 2 host-in ports (2*width) but we built host with 1 port:
        // use port 0 only. FIFO capacity 2.
        let mut stats = Stats::new(1);
        host.attach_input(0, 0, vec![w(1); 5]).unwrap();
        for _ in 0..5 {
            host.step(&mut sw, &mut stats);
        }
        assert_eq!(sw[0].host_in[0].len(), 2);
        assert_eq!(host.pending_input(0, 0).unwrap(), 3);
    }

    #[test]
    fn bounds_are_checked() {
        let mut host = HostInterface::new(1, 2, 1, LinkModel::Direct);
        assert!(host.attach_input(1, 0, []).is_err());
        assert!(host.attach_input(0, 2, []).is_err());
        assert!(host.sink(3, 0).is_err());
        assert!(host.sink(0, 3).is_err());
        assert!(host.take_sink(3, 0).is_err());
        assert!(host.pending_input(0, 5).is_err());
    }
}
