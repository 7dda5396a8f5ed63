//! Time-series recording for telemetry (frequency traces, allocation
//! decisions over time, power draw).

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// An append-only `(time, value)` series with monotonically non-decreasing
/// timestamps.
///
/// # Examples
///
/// ```
/// use aum_sim::series::TimeSeries;
/// use aum_sim::time::SimTime;
///
/// let mut ts = TimeSeries::new("freq_ghz");
/// ts.push(SimTime::from_millis(0), 3.2);
/// ts.push(SimTime::from_millis(10), 2.5);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last_value(), Some(2.5));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty, named series.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Series name, used in reports.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded timestamp.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(
                t >= last,
                "time series {} must be appended in order",
                self.name
            );
        }
        self.times.push(t);
        self.values.push(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Most recent value.
    #[must_use]
    pub fn last_value(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Value in effect at time `t` under zero-order hold (the last sample at
    /// or before `t`), or `None` before the first sample.
    #[must_use]
    pub fn sample_at(&self, t: SimTime) -> Option<f64> {
        match self.times.binary_search(&t) {
            Ok(mut idx) => {
                // Multiple samples may share a timestamp; take the last.
                while idx + 1 < self.times.len() && self.times[idx + 1] == t {
                    idx += 1;
                }
                Some(self.values[idx])
            }
            Err(0) => None,
            Err(idx) => Some(self.values[idx - 1]),
        }
    }

    /// Time-weighted mean over `[start, end)` under zero-order hold.
    ///
    /// Returns `None` if the window is empty or starts before the first
    /// sample.
    #[must_use]
    pub fn time_weighted_mean(&self, start: SimTime, end: SimTime) -> Option<f64> {
        if end <= start {
            return None;
        }
        let mut current = self.sample_at(start)?;
        let mut cursor = start;
        let mut weighted = 0.0;
        for (t, v) in self.iter() {
            if t <= start {
                continue;
            }
            if t >= end {
                break;
            }
            weighted += current * (t - cursor).as_secs_f64();
            cursor = t;
            current = v;
        }
        weighted += current * (end - cursor).as_secs_f64();
        Some(weighted / (end - start).as_secs_f64())
    }

    /// Renders the series as two-column CSV (`time_secs,value`) with a
    /// header row — the hand-off format for external plotting.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = format!("time_secs,{}\n", self.name);
        for (t, v) in self.iter() {
            out.push_str(&format!("{:.9},{v}\n", t.as_secs_f64()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let mut ts = TimeSeries::new("t");
        ts.push(SimTime::from_secs(0), 1.0);
        ts.push(SimTime::from_secs(10), 3.0);
        ts.push(SimTime::from_secs(20), 5.0);
        ts
    }

    #[test]
    fn sample_at_holds_last_value() {
        let ts = series();
        assert_eq!(ts.sample_at(SimTime::from_secs(0)), Some(1.0));
        assert_eq!(ts.sample_at(SimTime::from_secs(5)), Some(1.0));
        assert_eq!(ts.sample_at(SimTime::from_secs(10)), Some(3.0));
        assert_eq!(ts.sample_at(SimTime::from_secs(99)), Some(5.0));
    }

    #[test]
    fn sample_before_first_is_none() {
        let mut ts = TimeSeries::new("t");
        ts.push(SimTime::from_secs(5), 1.0);
        assert_eq!(ts.sample_at(SimTime::from_secs(4)), None);
    }

    #[test]
    fn duplicate_timestamp_takes_last() {
        let mut ts = TimeSeries::new("t");
        ts.push(SimTime::from_secs(1), 1.0);
        ts.push(SimTime::from_secs(1), 2.0);
        assert_eq!(ts.sample_at(SimTime::from_secs(1)), Some(2.0));
    }

    #[test]
    fn time_weighted_mean_weights_by_duration() {
        let ts = series();
        // [0,20): 1.0 for 10s, 3.0 for 10s => 2.0
        let m = ts.time_weighted_mean(SimTime::from_secs(0), SimTime::from_secs(20));
        assert!((m.expect("window covered") - 2.0).abs() < 1e-12);
        // [5,15): 1.0 for 5s, 3.0 for 5s => 2.0
        let m = ts.time_weighted_mean(SimTime::from_secs(5), SimTime::from_secs(15));
        assert!((m.expect("window covered") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_none() {
        let ts = series();
        assert!(ts
            .time_weighted_mean(SimTime::from_secs(5), SimTime::from_secs(5))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new("t");
        ts.push(SimTime::from_secs(2), 0.0);
        ts.push(SimTime::from_secs(1), 0.0);
    }

    #[test]
    fn csv_round_trips_values() {
        let ts = series();
        let csv = ts.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_secs,t");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0.000000000,1"));
        assert!(lines[3].starts_with("20.000000000,5"));
    }
}
