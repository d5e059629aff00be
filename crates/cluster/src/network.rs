//! Latency/bandwidth model for message delivery and state transfer.
//!
//! Two delivery classes matter to the paper's results:
//!
//! - **local** — sender and receiver are actors on the same server; delivery
//!   is a queue hop with sub-millisecond latency.
//! - **remote** — a network round between servers: a base one-way latency
//!   plus a serialization term proportional to message size over the
//!   sender's NIC bandwidth.
//!
//! The gap between the two is exactly what `colocate` rules exploit
//! (Figs. 5, 11), so the model keeps it explicit and configurable.

use plasma_sim::SimDuration;

/// Parameters of the cluster interconnect.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// Delivery latency between actors on the same server.
    pub local_latency: SimDuration,
    /// Base one-way latency between different servers.
    pub remote_latency: SimDuration,
    /// One-way latency for control-plane (LEM/GEM) messages.
    pub control_latency: SimDuration,
    /// Latency from external clients to the cluster edge.
    pub client_latency: SimDuration,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // Calibrated to intra-AZ AWS: ~60us kernel/queue hop locally,
        // ~500us between instances, ~5ms from external clients.
        NetworkModel {
            local_latency: SimDuration::from_micros(60),
            remote_latency: SimDuration::from_micros(500),
            control_latency: SimDuration::from_micros(500),
            client_latency: SimDuration::from_millis(5),
        }
    }
}

impl NetworkModel {
    /// Returns the delivery delay for an application message.
    ///
    /// `sender_bps` is the sending server's NIC bandwidth; it only matters
    /// for the remote path.
    pub fn delivery_delay(&self, same_server: bool, bytes: u64, sender_bps: f64) -> SimDuration {
        if same_server {
            self.local_latency
        } else {
            self.remote_latency + Self::wire_time(bytes, sender_bps)
        }
    }

    /// Returns the delay for a bulk transfer (e.g., actor state migration).
    pub fn transfer_delay(&self, bytes: u64, bps: f64) -> SimDuration {
        self.remote_latency + Self::wire_time(bytes, bps)
    }

    /// Returns the one-way delay for a client request entering the cluster.
    pub fn client_delay(&self, bytes: u64, bps: f64) -> SimDuration {
        self.client_latency + Self::wire_time(bytes, bps)
    }

    /// Returns the serialization time of `bytes` at `bps`.
    fn wire_time(bytes: u64, bps: f64) -> SimDuration {
        if bps <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_beats_remote() {
        let net = NetworkModel::default();
        let local = net.delivery_delay(true, 1024, 1e9);
        let remote = net.delivery_delay(false, 1024, 1e9);
        assert!(local < remote);
    }

    #[test]
    fn local_ignores_size() {
        let net = NetworkModel::default();
        assert_eq!(
            net.delivery_delay(true, 1, 1e9),
            net.delivery_delay(true, 1 << 30, 1e9)
        );
    }

    #[test]
    fn remote_grows_with_size_and_shrinks_with_bandwidth() {
        let net = NetworkModel::default();
        let small = net.delivery_delay(false, 1_000, 1e9);
        let big = net.delivery_delay(false, 1_000_000, 1e9);
        assert!(big > small);
        let fast = net.delivery_delay(false, 1_000_000, 10e9);
        assert!(fast < big);
    }

    #[test]
    fn transfer_delay_of_one_megabyte() {
        let net = NetworkModel::default();
        // 1 MB over 1 Gbps = 8ms wire time + 0.5ms latency.
        let d = net.transfer_delay(1_000_000, 1e9);
        assert_eq!(d, SimDuration::from_micros(8_500));
    }

    #[test]
    fn zero_bandwidth_means_latency_only() {
        let net = NetworkModel::default();
        assert_eq!(net.transfer_delay(1_000_000, 0.0), net.remote_latency);
    }
}
