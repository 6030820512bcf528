use std::error::Error;
use std::fmt;

/// Error returned when constructing a unit value or calendar from invalid
/// numeric input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UnitsError {
    /// The value was NaN or infinite where a finite quantity is required.
    NotFinite {
        /// Name of the offending quantity (e.g. `"slot_hours"`).
        what: &'static str,
    },
    /// The value was negative where a non-negative quantity is required.
    Negative {
        /// Name of the offending quantity.
        what: &'static str,
    },
    /// A count (frames, slots per frame) was zero.
    ZeroCount {
        /// Name of the offending count.
        what: &'static str,
    },
    /// A positive value rounds to zero at the quantity's stored
    /// resolution (a slot shorter than half a millihour).
    BelowResolution {
        /// Name of the offending quantity.
        what: &'static str,
    },
    /// A value is too large for the quantity's stored representation to
    /// hold exactly (a slot of 2^64 millihours or more).
    AboveRange {
        /// Name of the offending quantity.
        what: &'static str,
    },
}

impl fmt::Display for UnitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitsError::NotFinite { what } => {
                write!(f, "{what} must be finite")
            }
            UnitsError::Negative { what } => {
                write!(f, "{what} must be non-negative")
            }
            UnitsError::ZeroCount { what } => {
                write!(f, "{what} must be at least 1")
            }
            UnitsError::BelowResolution { what } => {
                write!(f, "{what} rounds to zero at its stored resolution")
            }
            UnitsError::AboveRange { what } => {
                write!(f, "{what} is too large to store exactly")
            }
        }
    }
}

impl Error for UnitsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = UnitsError::NotFinite { what: "slot_hours" };
        assert_eq!(e.to_string(), "slot_hours must be finite");
        let e = UnitsError::Negative { what: "capacity" };
        assert_eq!(e.to_string(), "capacity must be non-negative");
        let e = UnitsError::ZeroCount { what: "frames" };
        assert_eq!(e.to_string(), "frames must be at least 1");
        let e = UnitsError::BelowResolution { what: "slot_hours" };
        assert_eq!(
            e.to_string(),
            "slot_hours rounds to zero at its stored resolution"
        );
        let e = UnitsError::AboveRange { what: "slot_hours" };
        assert_eq!(e.to_string(), "slot_hours is too large to store exactly");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<UnitsError>();
    }
}
