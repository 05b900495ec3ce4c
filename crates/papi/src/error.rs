//! PAPI-style error codes.

use core::fmt;

/// Errors returned by the middleware, mirroring PAPI's `PAPI_E*` codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PapiError {
    /// `PAPI_ENOEVNT`: the event name does not resolve.
    NoSuchEvent(String),
    /// `PAPI_ENOCMP`: no component claims the event's prefix.
    NoSuchComponent(String),
    /// `PAPI_ECMP`: the component is present but disabled (e.g. lacking
    /// privileges), with the reason recorded at init.
    ComponentDisabled { component: String, reason: String },
    /// `PAPI_EPERM`: operation requires privileges the context lacks.
    Permission(String),
    /// `PAPI_EISRUN`: the event set is already running.
    IsRunning,
    /// `PAPI_ENOTRUN`: the event set is not running.
    NotRunning,
    /// `PAPI_EINVAL`: malformed event string or invalid argument.
    Invalid(String),
    /// `PAPI_ESYS`: a backend failed (daemon gone, device lost…).
    System(String),
}

impl fmt::Display for PapiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PapiError::NoSuchEvent(e) => write!(f, "PAPI_ENOEVNT: no such event: {e}"),
            PapiError::NoSuchComponent(c) => {
                write!(f, "PAPI_ENOCMP: no such component: {c}")
            }
            PapiError::ComponentDisabled { component, reason } => {
                write!(f, "PAPI_ECMP: component {component} disabled: {reason}")
            }
            PapiError::Permission(m) => write!(f, "PAPI_EPERM: {m}"),
            PapiError::IsRunning => write!(f, "PAPI_EISRUN: event set already running"),
            PapiError::NotRunning => write!(f, "PAPI_ENOTRUN: event set not running"),
            PapiError::Invalid(m) => write!(f, "PAPI_EINVAL: {m}"),
            PapiError::System(m) => write!(f, "PAPI_ESYS: {m}"),
        }
    }
}

impl std::error::Error for PapiError {}

/// A measurement window whose counters broke conservation is a failed
/// backend: the bytes it would report cannot be trusted.
impl From<p9_memsim::ConservationError> for PapiError {
    fn from(e: p9_memsim::ConservationError) -> Self {
        PapiError::System(format!("counter conservation violated: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_names() {
        assert!(PapiError::NoSuchEvent("x".into())
            .to_string()
            .contains("ENOEVNT"));
        assert!(PapiError::IsRunning.to_string().contains("EISRUN"));
        assert!(PapiError::NotRunning.to_string().contains("ENOTRUN"));
        let e = PapiError::ComponentDisabled {
            component: "perf_uncore".into(),
            reason: "permission denied".into(),
        };
        assert!(e.to_string().contains("perf_uncore"));
    }

    #[test]
    fn conservation_error_keeps_channel_direction_and_bytes() {
        let e: PapiError = p9_memsim::ConservationError::Channel {
            channel: 3,
            dir: "write",
            counter: 4160,
            expected: 4096,
        }
        .into();
        assert!(matches!(e, PapiError::System(_)), "{e:?}");
        let text = e.to_string();
        for needle in ["ESYS", "channel 3", "write", "4160", "4096"] {
            assert!(text.contains(needle), "{needle:?} missing from {text:?}");
        }
    }
}
