//! The temperature-control core (pure logic, no syscalls).
//!
//! §II: the controller "periodically receives the current room temperature
//! sensor data [...] Based on the sensor data, it sends control commands
//! to the heater driver and to the alarm driver. The temperature control
//! process also listens for setpoint updates from web interface" and must
//! "allow an administrator to adjust the desired room temperature within
//! this range" — out-of-range setpoints are rejected.

use bas_sim::device::DeviceId;
use bas_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::proto::BasMsg;

/// Static control parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlConfig {
    /// Initial setpoint, milli-°C.
    pub setpoint_milli_c: i32,
    /// Lowest setpoint an administrator may select, milli-°C.
    pub min_setpoint_milli_c: i32,
    /// Highest setpoint an administrator may select, milli-°C.
    pub max_setpoint_milli_c: i32,
    /// Allowed band half-width around the setpoint, milli-°C; excursions
    /// beyond it arm the alarm timer.
    pub band_milli_c: i32,
    /// Fan switching hysteresis, milli-°C (prevents relay chatter).
    pub hysteresis_milli_c: i32,
    /// How long the temperature may stay out of band before the alarm
    /// must sound ("e.g., 5 minutes").
    pub alarm_deadline: SimDuration,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            setpoint_milli_c: 22_000,
            min_setpoint_milli_c: 18_000,
            max_setpoint_milli_c: 28_000,
            band_milli_c: 1_000,
            hysteresis_milli_c: 300,
            alarm_deadline: SimDuration::from_mins(5),
        }
    }
}

/// An actuator command the core wants executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Drive the fan actuator.
    SetFan(bool),
    /// Drive the alarm actuator.
    SetAlarm(bool),
}

/// Why a setpoint update was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetpointOutOfRange {
    /// The rejected value, milli-°C.
    pub requested_milli_c: i32,
}

impl std::fmt::Display for SetpointOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "setpoint {} m°C outside the permitted range",
            self.requested_milli_c
        )
    }
}

impl std::error::Error for SetpointOutOfRange {}

/// Controller status snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlStatus {
    /// Last accepted sensor reading, milli-°C (0 before the first).
    pub last_reading_milli_c: i32,
    /// Active setpoint, milli-°C.
    pub setpoint_milli_c: i32,
    /// Commanded fan state.
    pub fan_on: bool,
    /// Commanded alarm state.
    pub alarm_on: bool,
}

impl From<ControlStatus> for BasMsg {
    /// The status reply the controller sends to a status query.
    fn from(s: ControlStatus) -> Self {
        BasMsg::Status {
            temp_milli_c: s.last_reading_milli_c,
            setpoint_milli_c: s.setpoint_milli_c,
            fan_on: s.fan_on,
            alarm_on: s.alarm_on,
        }
    }
}

/// The level an actuator driver for `dev` writes on receiving `msg`:
/// `FanCmd` drives the fan and `AlarmCmd` the alarm. `None` when `msg`
/// is not a command for `dev`, which the driver then ignores.
pub fn actuator_level(dev: DeviceId, msg: &BasMsg) -> Option<bool> {
    match (dev, msg) {
        (DeviceId::FAN, BasMsg::FanCmd { on }) | (DeviceId::ALARM, BasMsg::AlarmCmd { on }) => {
            Some(*on)
        }
        _ => None,
    }
}

/// The pure control core.
///
/// ```
/// use bas_core::logic::control::{ControlConfig, ControlCore, Directive};
/// use bas_sim::time::SimTime;
///
/// let mut core = ControlCore::new(ControlConfig::default());
/// // Hot reading: the fan must switch on.
/// let d = core.on_sensor_reading(SimTime::ZERO, 23_000);
/// assert!(d.contains(&Directive::SetFan(true)));
/// ```
#[derive(Debug, Clone)]
pub struct ControlCore {
    config: ControlConfig,
    setpoint_milli_c: i32,
    fan_on: bool,
    alarm_on: bool,
    last_reading_milli_c: i32,
    out_of_band_since: Option<SimTime>,
    readings_processed: u64,
}

impl ControlCore {
    /// Creates a core with the given configuration.
    pub fn new(config: ControlConfig) -> Self {
        ControlCore {
            setpoint_milli_c: config.setpoint_milli_c,
            fan_on: false,
            alarm_on: false,
            last_reading_milli_c: 0,
            out_of_band_since: None,
            readings_processed: 0,
            config,
        }
    }

    /// Processes one sensor reading; returns the actuator commands that
    /// changed state (idempotent commands are suppressed).
    pub fn on_sensor_reading(&mut self, now: SimTime, milli_c: i32) -> Vec<Directive> {
        self.readings_processed += 1;
        self.last_reading_milli_c = milli_c;
        let mut directives = Vec::new();

        // Bang-bang fan control with hysteresis.
        let want_fan = if milli_c > self.setpoint_milli_c + self.config.hysteresis_milli_c {
            true
        } else if milli_c < self.setpoint_milli_c - self.config.hysteresis_milli_c {
            false
        } else {
            self.fan_on
        };
        if want_fan != self.fan_on {
            self.fan_on = want_fan;
            directives.push(Directive::SetFan(want_fan));
        }

        // Alarm-deadline supervision.
        let deviation = (milli_c - self.setpoint_milli_c).abs();
        let want_alarm = if deviation > self.config.band_milli_c {
            let start = *self.out_of_band_since.get_or_insert(now);
            now.saturating_since(start) >= self.config.alarm_deadline
        } else {
            self.out_of_band_since = None;
            false
        };
        if want_alarm != self.alarm_on {
            self.alarm_on = want_alarm;
            directives.push(Directive::SetAlarm(want_alarm));
        }

        directives
    }

    /// Applies an administrator setpoint update.
    ///
    /// # Errors
    ///
    /// Returns [`SetpointOutOfRange`] (leaving the setpoint unchanged)
    /// when the request leaves the configured range — the input validation
    /// that makes setpoint tampering through the *legitimate* channel
    /// bounded on every platform.
    pub fn on_setpoint_update(
        &mut self,
        now: SimTime,
        milli_c: i32,
    ) -> Result<(), SetpointOutOfRange> {
        if milli_c < self.config.min_setpoint_milli_c || milli_c > self.config.max_setpoint_milli_c
        {
            return Err(SetpointOutOfRange {
                requested_milli_c: milli_c,
            });
        }
        self.setpoint_milli_c = milli_c;
        // The reference moved: restart the excursion window.
        self.out_of_band_since = Some(now);
        Ok(())
    }

    /// Current status snapshot.
    pub fn status(&self) -> ControlStatus {
        ControlStatus {
            last_reading_milli_c: self.last_reading_milli_c,
            setpoint_milli_c: self.setpoint_milli_c,
            fan_on: self.fan_on,
            alarm_on: self.alarm_on,
        }
    }

    /// Number of sensor readings processed (liveness signal for the
    /// attack harness).
    pub fn readings_processed(&self) -> u64 {
        self.readings_processed
    }

    /// The static configuration.
    pub fn config(&self) -> &ControlConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn core() -> ControlCore {
        ControlCore::new(ControlConfig::default())
    }

    #[test]
    fn fan_switches_on_above_hysteresis() {
        let mut c = core();
        assert_eq!(
            c.on_sensor_reading(at(0), 22_200),
            vec![],
            "inside hysteresis"
        );
        assert_eq!(
            c.on_sensor_reading(at(1), 22_400),
            vec![Directive::SetFan(true)]
        );
        assert_eq!(
            c.on_sensor_reading(at(2), 22_400),
            vec![],
            "no repeat command"
        );
    }

    #[test]
    fn fan_switches_off_below_hysteresis() {
        let mut c = core();
        c.on_sensor_reading(at(0), 23_000);
        assert!(c.status().fan_on);
        assert_eq!(
            c.on_sensor_reading(at(1), 22_000),
            vec![],
            "hysteresis holds"
        );
        assert_eq!(
            c.on_sensor_reading(at(2), 21_600),
            vec![Directive::SetFan(false)]
        );
    }

    #[test]
    fn alarm_fires_only_after_deadline() {
        let mut c = core();
        c.on_sensor_reading(at(0), 26_000); // out of band, fan on
        for s in 1..300 {
            let d = c.on_sensor_reading(at(s), 26_000);
            assert!(!d.contains(&Directive::SetAlarm(true)), "too early at {s}s");
        }
        let d = c.on_sensor_reading(at(300), 26_000);
        assert!(d.contains(&Directive::SetAlarm(true)));
        assert!(c.status().alarm_on);
    }

    #[test]
    fn alarm_clears_when_back_in_band() {
        let mut c = core();
        for s in 0..=300 {
            c.on_sensor_reading(at(s), 26_000);
        }
        assert!(c.status().alarm_on);
        let d = c.on_sensor_reading(at(301), 22_000);
        assert!(d.contains(&Directive::SetAlarm(false)));
        assert!(!c.status().alarm_on);
    }

    #[test]
    fn setpoint_update_within_range_accepted() {
        let mut c = core();
        assert!(c.on_setpoint_update(at(0), 24_000).is_ok());
        assert_eq!(c.status().setpoint_milli_c, 24_000);
        // Fan logic follows the new setpoint.
        let d = c.on_sensor_reading(at(1), 23_000);
        assert_eq!(d, vec![], "23°C is below the 24°C setpoint band");
    }

    #[test]
    fn setpoint_out_of_range_rejected() {
        let mut c = core();
        let err = c.on_setpoint_update(at(0), 95_000).unwrap_err();
        assert_eq!(err.requested_milli_c, 95_000);
        assert_eq!(c.status().setpoint_milli_c, 22_000, "unchanged");
        assert!(c.on_setpoint_update(at(0), 10_000).is_err());
    }

    #[test]
    fn setpoint_change_restarts_alarm_window() {
        let mut c = core();
        for s in 0..250 {
            c.on_sensor_reading(at(s), 26_000);
        }
        // Admin legitimizes the higher temperature just before the
        // deadline: window restarts relative to the new target of 26°C...
        c.on_setpoint_update(at(250), 26_000).unwrap();
        for s in 250..900 {
            let d = c.on_sensor_reading(at(s), 26_000);
            assert!(
                !d.contains(&Directive::SetAlarm(true)),
                "in band at new setpoint"
            );
        }
    }

    #[test]
    fn actuator_level_matches_command_to_device() {
        let fan = BasMsg::FanCmd { on: true };
        let alarm = BasMsg::AlarmCmd { on: false };
        assert_eq!(actuator_level(DeviceId::FAN, &fan), Some(true));
        assert_eq!(actuator_level(DeviceId::ALARM, &alarm), Some(false));
        assert_eq!(actuator_level(DeviceId::ALARM, &fan), None);
        assert_eq!(actuator_level(DeviceId::FAN, &BasMsg::StatusQuery), None);
    }

    #[test]
    fn readings_counter_increments() {
        let mut c = core();
        for s in 0..5 {
            c.on_sensor_reading(at(s), 22_000);
        }
        assert_eq!(c.readings_processed(), 5);
    }
}
