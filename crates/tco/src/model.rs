//! The 100-year / 1 PB TCO analytical model (§2.1).
//!
//! Cost components per media technology, over a preservation horizon:
//!
//! - **acquisition + repurchase**: media must be rebought every
//!   `lifetime_years`,
//! - **migration**: every repurchase forces a full-corpus copy
//!   (read + write + labour),
//! - **energy**: active hardware plus climate control where required,
//! - **maintenance**: rewinding for tape (§2: "rewinding operations every
//!   two years"), scrubbing labour, library hardware refresh.
//!
//! Default parameters are calibrated to the paper's cited result:
//! optical ≈ 250 K$/PB/century ≈ ⅓ of HDD ≈ ½ of tape.

use serde::{Deserialize, Serialize};

/// Economic and physical parameters of one storage technology.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct MediaSpec {
    /// Technology name.
    pub(crate) name: String,
    /// Media cost in $ per terabyte (per purchase).
    pub(crate) media_cost_per_tb: f64,
    /// Reliable media lifetime in years before replacement (§2: SSD/HDD
    /// ≤ 5, tape ≈ 10, optical > 50).
    pub(crate) lifetime_years: f64,
    /// Cost of one full-corpus migration, $ per PB (drive time, network,
    /// labour, verification).
    pub(crate) migration_cost_per_pb: f64,
    /// Average power draw of 1 PB of this media plus its access
    /// hardware, in watts.
    pub(crate) power_watts_per_pb: f64,
    /// Climate-control overhead multiplier on energy (strict temperature
    /// and humidity for tape/HDD; optical needs none, §2).
    pub(crate) climate_multiplier: f64,
    /// Recurring maintenance cost, $ per PB per year (tape rewinding
    /// every two years, scrubbing labour, library service).
    pub(crate) maintenance_per_pb_year: f64,
    /// Access/library hardware cost per PB per decade (drives, robots,
    /// enclosures; refreshed every 10 years).
    pub(crate) hardware_per_pb_decade: f64,
}

impl MediaSpec {
    /// Blu-ray optical library, the ROS technology point.
    pub(crate) fn optical() -> Self {
        MediaSpec {
            name: "optical".into(),
            // §2.1: "Current media cost per GB of 25GB discs has become
            // close to that of tapes." ~$1 per 25 GB disc plus the
            // 12-discs-per-11-data parity overhead and caddies.
            media_cost_per_tb: 50.0,
            lifetime_years: 50.0,
            migration_cost_per_pb: 20_000.0,
            // Idle library: discs draw nothing; the rack idles at 185 W
            // (§5.1) per 1.16 PB.
            power_watts_per_pb: 250.0,
            climate_multiplier: 1.0,
            maintenance_per_pb_year: 300.0,
            hardware_per_pb_decade: 6_000.0,
        }
    }

    /// Nearline HDD array (2016-era 4-8 TB drives).
    pub(crate) fn hdd() -> Self {
        MediaSpec {
            name: "hdd".into(),
            media_cost_per_tb: 25.0,
            lifetime_years: 5.0,
            migration_cost_per_pb: 5_000.0,
            // 250 mostly-idle 4 TB drives ≈ 1.2 kW per PB.
            power_watts_per_pb: 1_200.0,
            climate_multiplier: 1.4,
            maintenance_per_pb_year: 500.0,
            hardware_per_pb_decade: 8_000.0,
        }
    }

    /// LTO tape library.
    pub(crate) fn tape() -> Self {
        MediaSpec {
            name: "tape".into(),
            media_cost_per_tb: 10.0,
            lifetime_years: 10.0,
            migration_cost_per_pb: 8_000.0,
            power_watts_per_pb: 300.0,
            // §2: "constant temperature, strict humidity".
            climate_multiplier: 3.0,
            // §2: "rewinding operations every two years, which are
            // inevitable to protect tapes from adhesion and mildew".
            maintenance_per_pb_year: 1_700.0,
            hardware_per_pb_decade: 9_000.0,
        }
    }

    /// Datacenter SSD (for completeness; nobody archives on flash).
    pub(crate) fn ssd() -> Self {
        MediaSpec {
            name: "ssd".into(),
            media_cost_per_tb: 250.0,
            lifetime_years: 5.0,
            migration_cost_per_pb: 4_000.0,
            power_watts_per_pb: 600.0,
            climate_multiplier: 1.2,
            maintenance_per_pb_year: 400.0,
            hardware_per_pb_decade: 6_000.0,
        }
    }
}

/// The scenario being costed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TcoModel {
    /// Corpus size in petabytes.
    pub(crate) capacity_pb: f64,
    /// Preservation horizon in years.
    pub(crate) horizon_years: f64,
    /// Electricity price in $ per kWh.
    pub(crate) energy_cost_per_kwh: f64,
}

impl Default for TcoModel {
    fn default() -> Self {
        // The paper's cited scenario: 1 PB for 100 years.
        TcoModel {
            capacity_pb: 1.0,
            horizon_years: 100.0,
            energy_cost_per_kwh: 0.10,
        }
    }
}

/// Cost breakdown in dollars over the whole horizon.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TcoBreakdown {
    /// Technology name.
    pub name: String,
    /// Media purchases (initial + replacements).
    pub media: f64,
    /// Full-corpus migrations between media generations.
    pub migration: f64,
    /// Energy including climate control.
    pub energy: f64,
    /// Recurring maintenance.
    pub maintenance: f64,
    /// Access/library hardware refreshes.
    pub hardware: f64,
}

impl TcoBreakdown {
    /// Total cost over the horizon.
    pub fn total(&self) -> f64 {
        self.media + self.migration + self.energy + self.maintenance + self.hardware
    }
}

impl TcoModel {
    /// Costs one technology over the scenario.
    pub(crate) fn analyze(&self, spec: &MediaSpec) -> TcoBreakdown {
        let purchases = (self.horizon_years / spec.lifetime_years).ceil().max(1.0);
        let migrations = purchases - 1.0;
        let media = purchases * spec.media_cost_per_tb * 1_000.0 * self.capacity_pb;
        let migration = migrations * spec.migration_cost_per_pb * self.capacity_pb;
        let kwh = spec.power_watts_per_pb * self.capacity_pb / 1_000.0
            * 24.0
            * 365.0
            * self.horizon_years
            * spec.climate_multiplier;
        let energy = kwh * self.energy_cost_per_kwh;
        let maintenance = spec.maintenance_per_pb_year * self.capacity_pb * self.horizon_years;
        let hardware = spec.hardware_per_pb_decade * self.capacity_pb * (self.horizon_years / 10.0);
        TcoBreakdown {
            name: spec.name.clone(),
            media,
            migration,
            energy,
            maintenance,
            hardware,
        }
    }

    /// Analyzes the paper's four technologies, sorted cheapest first.
    pub fn compare_all(&self) -> Vec<TcoBreakdown> {
        let mut v: Vec<TcoBreakdown> = [
            MediaSpec::optical(),
            MediaSpec::tape(),
            MediaSpec::hdd(),
            MediaSpec::ssd(),
        ]
        .iter()
        .map(|s| self.analyze(s))
        .collect();
        v.sort_by(|a, b| a.total().total_cmp(&b.total()));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn century() -> TcoModel {
        TcoModel::default()
    }

    #[test]
    fn optical_is_about_250k_per_pb_century() {
        let t = century().analyze(&MediaSpec::optical());
        let total = t.total(); // the default scenario is 1 PB
        assert!(
            (total - 250_000.0).abs() / 250_000.0 < 0.15,
            "optical TCO = {total:.0} $/PB (paper: 250K$)"
        );
    }

    #[test]
    fn optical_is_one_third_of_hdd() {
        let m = century();
        let optical = m.analyze(&MediaSpec::optical()).total();
        let hdd = m.analyze(&MediaSpec::hdd()).total();
        let ratio = optical / hdd;
        assert!(
            (ratio - 1.0 / 3.0).abs() < 0.07,
            "optical/hdd = {ratio:.2} (paper: about 1/3)"
        );
    }

    #[test]
    fn optical_is_one_half_of_tape() {
        let m = century();
        let optical = m.analyze(&MediaSpec::optical()).total();
        let tape = m.analyze(&MediaSpec::tape()).total();
        let ratio = optical / tape;
        assert!(
            (ratio - 0.5).abs() < 0.08,
            "optical/tape = {ratio:.2} (paper: about 1/2)"
        );
    }

    #[test]
    fn cheapest_ordering_is_optical_tape_hdd_ssd() {
        let order: Vec<String> = century()
            .compare_all()
            .into_iter()
            .map(|b| b.name)
            .collect();
        assert_eq!(order, vec!["optical", "tape", "hdd", "ssd"]);
    }

    #[test]
    fn hdd_cost_is_dominated_by_replacement_and_energy() {
        let b = century().analyze(&MediaSpec::hdd());
        assert!(b.media > b.maintenance);
        assert!(b.energy > b.maintenance);
        // 20 purchases over a century at 5-year lifetimes.
        assert!((b.media - 20.0 * 25_000.0).abs() < 1.0);
    }

    #[test]
    fn optical_pays_almost_no_migration() {
        let b = century().analyze(&MediaSpec::optical());
        // 2 purchases, 1 migration in 100 years.
        assert!((b.migration - 20_000.0).abs() < 1.0);
        let hdd = century().analyze(&MediaSpec::hdd());
        assert!(hdd.migration > b.migration * 4.0);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = century().analyze(&MediaSpec::tape());
        let sum = b.media + b.migration + b.energy + b.maintenance + b.hardware;
        assert_eq!(b.total(), sum);
    }

    #[test]
    fn scales_linearly_with_capacity() {
        let one = century().analyze(&MediaSpec::optical()).total();
        let ten = TcoModel {
            capacity_pb: 10.0,
            ..century()
        }
        .analyze(&MediaSpec::optical())
        .total();
        assert!((ten / one - 10.0).abs() < 1e-9);
    }

    #[test]
    fn short_horizon_has_single_purchase() {
        let m = TcoModel {
            horizon_years: 3.0,
            ..century()
        };
        let b = m.analyze(&MediaSpec::optical());
        assert!((b.media - 50_000.0).abs() < 1.0);
        assert_eq!(b.migration, 0.0);
    }
}
