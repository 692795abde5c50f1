//! Configuration of the global soft-state subsystem.

use tao_landmark::{LandmarkGrid, SpaceFillingCurve};
use tao_util::time::SimDuration;

/// Configuration shared by all maps: how landmark numbers are computed, how
/// maps are condensed, and how long entries live.
///
/// Build with [`SoftStateConfig::builder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftStateConfig {
    grid: LandmarkGrid,
    curve: SpaceFillingCurve,
    condense_rate: f64,
    ttl: SimDuration,
}

/// Builder for [`SoftStateConfig`].
///
/// # Example
///
/// ```
/// use tao_softstate::SoftStateConfig;
/// use tao_landmark::{LandmarkGrid, SpaceFillingCurve};
/// use tao_util::time::SimDuration;
///
/// let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap();
/// let config = SoftStateConfig::builder(grid)
///     .curve(SpaceFillingCurve::Hilbert)
///     .condense_rate(0.5)
///     .ttl(SimDuration::from_secs(30))
///     .build();
/// assert_eq!(config.condense_rate(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct SoftStateConfigBuilder {
    config: SoftStateConfig,
}

impl SoftStateConfig {
    /// Starts a builder with the paper's defaults: Hilbert curve, condense
    /// rate 1/4, 60-second TTL.
    pub fn builder(grid: LandmarkGrid) -> SoftStateConfigBuilder {
        SoftStateConfigBuilder {
            config: SoftStateConfig {
                grid,
                curve: SpaceFillingCurve::Hilbert,
                condense_rate: 0.25,
                ttl: SimDuration::from_secs(60),
            },
        }
    }

    /// The landmark-space grid used to derive landmark numbers.
    pub fn grid(&self) -> &LandmarkGrid {
        &self.grid
    }

    /// The space-filling curve used both for landmark numbers and for
    /// region positions.
    pub fn curve(&self) -> SpaceFillingCurve {
        self.curve
    }

    /// The map condense rate: the fraction of a region's volume that hosts
    /// its map (1.0 = the map spreads across the whole region).
    pub fn condense_rate(&self) -> f64 {
        self.condense_rate
    }

    /// Entry time-to-live.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }
}

impl SoftStateConfigBuilder {
    /// Sets the space-filling curve.
    pub fn curve(&mut self, curve: SpaceFillingCurve) -> &mut Self {
        self.config.curve = curve;
        self
    }

    /// Sets the condense rate.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `(0, 1]`.
    pub fn condense_rate(&mut self, rate: f64) -> &mut Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "condense rate must be in (0, 1], got {rate}"
        );
        self.config.condense_rate = rate;
        self
    }

    /// Sets the entry TTL.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is zero.
    pub fn ttl(&mut self, ttl: SimDuration) -> &mut Self {
        assert!(!ttl.is_zero(), "TTL must be positive");
        self.config.ttl = ttl;
        self
    }

    /// Produces the configuration.
    pub fn build(&self) -> SoftStateConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> LandmarkGrid {
        LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap()
    }

    #[test]
    fn defaults_match_design_doc() {
        let c = SoftStateConfig::builder(grid()).build();
        assert_eq!(c.condense_rate(), 0.25);
        assert_eq!(c.ttl(), SimDuration::from_secs(60));
        assert_eq!(c.curve(), SpaceFillingCurve::Hilbert);
    }

    #[test]
    fn builder_overrides_stick() {
        let c = SoftStateConfig::builder(grid())
            .curve(SpaceFillingCurve::ZOrder)
            .condense_rate(1.0)
            .ttl(SimDuration::from_secs(5))
            .build();
        assert_eq!(c.curve(), SpaceFillingCurve::ZOrder);
        assert_eq!(c.condense_rate(), 1.0);
        assert_eq!(c.ttl(), SimDuration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "condense rate")]
    fn zero_condense_rate_panics() {
        SoftStateConfig::builder(grid()).condense_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "TTL")]
    fn zero_ttl_panics() {
        SoftStateConfig::builder(grid()).ttl(SimDuration::ZERO);
    }
}
