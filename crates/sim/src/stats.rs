//! Network accounting: counts of messages and bytes moved through the
//! simulator, so experiments can report communication cost (e.g. the
//! maintenance-traffic comparison in §5.2 of the paper), plus fault
//! accounting (drops, duplicates, partition epochs) when a
//! [`FaultPlan`](crate::FaultPlan) is installed.

use std::fmt;

/// Running totals of simulated network activity.
///
/// # Example
///
/// ```
/// use tao_sim::NetStats;
///
/// let mut stats = NetStats::new();
/// stats.record_message(128);
/// stats.record_message(64);
/// assert_eq!(stats.messages(), 2);
/// assert_eq!(stats.bytes(), 192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    messages: u64,
    bytes: u64,
    drops: u64,
    duplicates: u64,
    partition_epochs: u64,
}

impl NetStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records one message of `bytes` payload bytes.
    pub fn record_message(&mut self, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
    }

    /// Records one dropped message (loss, partition cut, or dead endpoint).
    pub fn record_drop(&mut self) {
        self.drops += 1;
    }

    /// Records one duplicated delivery injected by the fault layer.
    pub fn record_duplicate(&mut self) {
        self.duplicates += 1;
    }

    /// Records `epochs` scheduled partition windows.
    pub fn record_partition_epochs(&mut self, epochs: u64) {
        self.partition_epochs += epochs;
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total payload bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total messages dropped by the fault layer.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Total duplicate deliveries injected by the fault layer.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Total partition windows scheduled on the installed fault plan.
    pub fn partition_epochs(&self) -> u64 {
        self.partition_epochs
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} msgs / {} bytes", self.messages, self.bytes)?;
        if self.drops > 0 {
            write!(f, " / {} dropped", self.drops)?;
        }
        if self.duplicates > 0 {
            write!(f, " / {} duplicated", self.duplicates)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_both_counters() {
        let mut s = NetStats::new();
        s.record_message(7);
        assert_eq!(s.to_string(), "1 msgs / 7 bytes");
    }

    #[test]
    fn display_appends_fault_counters_only_when_nonzero() {
        let mut s = NetStats::new();
        s.record_message(7);
        s.record_drop();
        s.record_drop();
        s.record_duplicate();
        assert_eq!(s.to_string(), "1 msgs / 7 bytes / 2 dropped / 1 duplicated");
    }
}
