//! WaveLAN device signal reporting.
//!
//! The AT&T WaveLAN driver reports three quantities the paper records
//! alongside packet traffic: signal level, signal quality, and silence
//! (noise-floor) level, in device-specific units. Levels below ~5 are
//! treated as background noise by the driver (§4.1).

/// A snapshot of what the WaveLAN device reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalInfo {
    /// Signal level in WaveLAN units (roughly 0–50; ≥ ~5 is usable).
    pub level: f64,
    /// Signal quality in WaveLAN units (0–15).
    pub quality: f64,
    /// Silence (noise floor) level in WaveLAN units.
    pub silence: f64,
}

impl SignalInfo {
    /// A dead-air reading.
    pub fn none() -> Self {
        SignalInfo {
            level: 0.0,
            quality: 0.0,
            silence: 2.0,
        }
    }

    /// Construct a reading from a signal level, deriving plausible
    /// quality/silence values the way the device's firmware correlates
    /// them (quality tracks level, saturating; silence stays near 2).
    pub fn from_level(level: f64) -> Self {
        let level = level.clamp(0.0, 50.0);
        SignalInfo {
            level,
            quality: (level * 0.6).clamp(0.0, 15.0),
            silence: 2.0,
        }
    }

    /// Quantized form for trace records (the on-disk format stores
    /// integers, like the real driver ioctl).
    pub fn quantized(&self) -> (u32, u32, u32) {
        (
            self.level.round().max(0.0) as u32,
            self.quality.round().max(0.0) as u32,
            self.silence.round().max(0.0) as u32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_level_clamps_and_derives() {
        let s = SignalInfo::from_level(30.0);
        assert_eq!(s.level, 30.0);
        assert_eq!(s.quality, 15.0); // saturated
        let s = SignalInfo::from_level(-3.0);
        assert_eq!(s.level, 0.0);
        let s = SignalInfo::from_level(100.0);
        assert_eq!(s.level, 50.0);
    }

    #[test]
    fn quantized_rounds() {
        let s = SignalInfo {
            level: 17.6,
            quality: 9.4,
            silence: 2.0,
        };
        assert_eq!(s.quantized(), (18, 9, 2));
    }
}
