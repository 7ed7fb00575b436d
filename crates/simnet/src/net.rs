//! Geo-distributed network model: regions, the AWS latency table of the
//! paper (Tab. 4), bandwidth and jitter.

use crate::time::SimTime;

/// The four AWS regions used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// ap-east (Hong Kong).
    Hongkong,
    /// eu-west (Paris).
    Paris,
    /// ap-southeast (Sydney).
    Sydney,
    /// us-west (California).
    California,
}

impl Region {
    /// All regions in table order.
    pub const ALL: [Region; 4] = [
        Region::Hongkong,
        Region::Paris,
        Region::Sydney,
        Region::California,
    ];

    /// Dense index of this region in [`Region::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            Region::Hongkong => 0,
            Region::Paris => 1,
            Region::Sydney => 2,
            Region::California => 3,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Region::Hongkong => "Hongkong",
            Region::Paris => "Paris",
            Region::Sydney => "Sydney",
            Region::California => "California",
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The inter-region one-way communication delays of the paper's Tab. 4, in
/// milliseconds. Row = source, column = destination, in [`Region::ALL`]
/// order. The diagonal is the intra-region delay used between a client and
/// its nearest server.
pub const AWS_LATENCY_MS: [[f64; 4]; 4] = [
    [1.41, 194.9, 132.28, 155.13],
    [197.91, 0.9, 278.83, 142.25],
    [132.06, 280.11, 2.56, 138.47],
    [154.96, 142.79, 138.57, 2.14],
];

/// Returns the paper's latency matrix as [`SimTime`] values.
///
/// # Example
///
/// ```
/// use spyker_simnet::net::{aws_latency_matrix, Region};
/// let m = aws_latency_matrix();
/// let hk_to_paris = m[Region::Hongkong.index()][Region::Paris.index()];
/// assert_eq!(hk_to_paris.as_micros(), 194_900);
/// ```
pub fn aws_latency_matrix() -> [[SimTime; 4]; 4] {
    let mut out = [[SimTime::ZERO; 4]; 4];
    for (i, row) in AWS_LATENCY_MS.iter().enumerate() {
        for (j, &ms) in row.iter().enumerate() {
            out[i][j] = SimTime::from_millis_f64(ms);
        }
    }
    out
}

/// How link capacity is charged to traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkModel {
    /// Every message pays its own full serialization delay
    /// (`bytes × 8 / bandwidth_bps`) on top of propagation — the paper's
    /// additive model and the default. Contention appears only through the
    /// per-link FIFO order; concurrent transfers do not slow each other.
    #[default]
    PerMessage,
    /// Flow-level processor sharing: each directed region pair is a trunk
    /// of `bandwidth_bps` capacity split equally among its in-flight
    /// flows, re-planned as flows join and leave. Congestion under heavy
    /// fan-in is modelled instead of additive. Opt-in via
    /// [`NetworkConfig::with_flow_shared_links`]; runs with the default
    /// model are byte-identical to builds that predate flow support.
    FlowShared,
}

/// Network configuration of one deployment.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    latency: [[SimTime; 4]; 4],
    /// Link bandwidth in bits per second (paper: 100 Mbps everywhere).
    pub bandwidth_bps: u64,
    /// Maximum uniformly-distributed extra latency added per message
    /// (failure-injection/jitter experiments; zero in the paper setting).
    pub jitter_max: SimTime,
    /// How bandwidth is charged (per-message serialization vs flow-level
    /// fair sharing).
    pub link_model: LinkModel,
}

impl NetworkConfig {
    /// Paper bandwidth: 100 Mbps.
    pub const PAPER_BANDWIDTH_BPS: u64 = 100_000_000;

    /// The paper's configuration: AWS latency matrix, 100 Mbps, no jitter.
    pub fn aws() -> Self {
        Self {
            latency: aws_latency_matrix(),
            bandwidth_bps: Self::PAPER_BANDWIDTH_BPS,
            jitter_max: SimTime::ZERO,
            link_model: LinkModel::PerMessage,
        }
    }

    /// A uniform network where every pair of distinct regions has the same
    /// `latency` and intra-region latency is `latency / 100` (paper Tab. 6
    /// "No lat." setting uses the *average* latency everywhere; use
    /// [`NetworkConfig::uniform_all`] for a fully flat network).
    ///
    /// Integer division would silently truncate sub-100 µs inputs to a
    /// zero intra-region delay, which breaks FIFO-sensitive scenarios; a
    /// non-zero `latency` therefore floors the diagonal at 1 µs.
    pub fn uniform(latency: SimTime) -> Self {
        let intra = if latency == SimTime::ZERO {
            SimTime::ZERO
        } else {
            (latency / 100).max(SimTime::from_micros(1))
        };
        let mut m = [[latency; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = intra;
        }
        Self {
            latency: m,
            bandwidth_bps: Self::PAPER_BANDWIDTH_BPS,
            jitter_max: SimTime::ZERO,
            link_model: LinkModel::PerMessage,
        }
    }

    /// A network where *every* pair, including intra-region, has the same
    /// latency.
    pub fn uniform_all(latency: SimTime) -> Self {
        Self {
            latency: [[latency; 4]; 4],
            bandwidth_bps: Self::PAPER_BANDWIDTH_BPS,
            jitter_max: SimTime::ZERO,
            link_model: LinkModel::PerMessage,
        }
    }

    /// Sets the jitter bound (builder style).
    pub fn with_jitter(mut self, jitter_max: SimTime) -> Self {
        self.jitter_max = jitter_max;
        self
    }

    /// Sets the bandwidth (builder style).
    pub fn with_bandwidth_bps(mut self, bandwidth_bps: u64) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        self.bandwidth_bps = bandwidth_bps;
        self
    }

    /// Switches to [`LinkModel::FlowShared`] (builder style): region-pair
    /// trunks of `bandwidth_bps` capacity fair-shared among concurrent
    /// flows instead of per-message serialization delays.
    pub fn with_flow_shared_links(mut self) -> Self {
        self.link_model = LinkModel::FlowShared;
        self
    }

    /// One-way propagation latency from `src` to `dst`.
    pub fn latency(&self, src: Region, dst: Region) -> SimTime {
        self.latency[src.index()][dst.index()]
    }

    /// Serialization delay of `bytes` at the configured bandwidth.
    pub fn serialization_delay(&self, bytes: usize) -> SimTime {
        SimTime::from_micros((bytes as u64 * 8).saturating_mul(1_000_000) / self.bandwidth_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_matrix_matches_paper_values() {
        let m = aws_latency_matrix();
        assert_eq!(m[0][0].as_micros(), 1_410); // Hongkong diag
        assert_eq!(m[1][2].as_micros(), 278_830); // Paris -> Sydney
        assert_eq!(m[3][3].as_micros(), 2_140); // California diag
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (i, j) vs (j, i): indices are the point
    fn matrix_is_roughly_symmetric() {
        // AWS latencies are not exactly symmetric but should be close.
        let m = AWS_LATENCY_MS;
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (m[i][j] - m[j][i]).abs() < 5.0,
                    "asymmetry too large at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn diagonal_is_much_smaller_than_off_diagonal() {
        let m = AWS_LATENCY_MS;
        for (i, row) in m.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if i != j {
                    assert!(v > 50.0 * m[i][i], "off-diagonal not dominant");
                }
            }
        }
    }

    #[test]
    fn serialization_delay_at_100mbps() {
        let net = NetworkConfig::aws();
        // 1.25 MB at 100 Mbps = 100 ms.
        assert_eq!(
            net.serialization_delay(1_250_000),
            SimTime::from_millis(100)
        );
        assert_eq!(net.serialization_delay(0), SimTime::ZERO);
    }

    #[test]
    fn uniform_network_has_flat_off_diagonal() {
        let net = NetworkConfig::uniform(SimTime::from_millis(50));
        assert_eq!(
            net.latency(Region::Paris, Region::Sydney),
            SimTime::from_millis(50)
        );
        assert!(net.latency(Region::Paris, Region::Paris) < SimTime::from_millis(1));
    }

    #[test]
    fn uniform_small_latencies_round_up_instead_of_truncating_to_zero() {
        // 50 µs / 100 would integer-truncate to 0; the diagonal must stay
        // non-zero for non-zero inputs.
        let net = NetworkConfig::uniform(SimTime::from_micros(50));
        assert_eq!(
            net.latency(Region::Paris, Region::Paris),
            SimTime::from_micros(1)
        );
        // Zero in, zero out.
        let flat = NetworkConfig::uniform(SimTime::ZERO);
        assert_eq!(flat.latency(Region::Paris, Region::Paris), SimTime::ZERO);
        // Large values keep the exact division.
        let big = NetworkConfig::uniform(SimTime::from_millis(50));
        assert_eq!(
            big.latency(Region::Paris, Region::Paris),
            SimTime::from_micros(500)
        );
    }

    #[test]
    fn flow_shared_builder_flips_the_link_model() {
        let net = NetworkConfig::aws();
        assert_eq!(net.link_model, LinkModel::PerMessage);
        let net = net.with_flow_shared_links();
        assert_eq!(net.link_model, LinkModel::FlowShared);
    }
}
