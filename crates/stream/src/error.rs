//! Error type for the streaming substrate.

use std::fmt;

/// Errors returned by the streaming components.
#[derive(Debug)]
pub enum Error {
    /// A configuration value is outside its documented domain.
    InvalidConfig(String),
    /// A network trace is empty or malformed.
    Trace(String),
    /// The requested video/chunk does not exist.
    NotFound(String),
    /// The transport layer could not deliver a frame even after climbing
    /// the whole recovery ladder (see [`crate::resilience`]).
    Transport(String),
    /// An error bubbled up from the super-resolution core.
    Core(volut_core::Error),
    /// An error bubbled up from the point-cloud substrate.
    PointCloud(volut_pointcloud::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Trace(msg) => write!(f, "invalid network trace: {msg}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::Transport(msg) => write!(f, "transport failure: {msg}"),
            Error::Core(e) => write!(f, "super-resolution error: {e}"),
            Error::PointCloud(e) => write!(f, "point cloud error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::PointCloud(e) => Some(e),
            _ => None,
        }
    }
}

impl From<volut_core::Error> for Error {
    fn from(e: volut_core::Error) -> Self {
        Error::Core(e)
    }
}

impl From<volut_pointcloud::Error> for Error {
    fn from(e: volut_pointcloud::Error) -> Self {
        Error::PointCloud(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        for e in [
            Error::InvalidConfig("x".into()),
            Error::Trace("empty".into()),
            Error::NotFound("chunk 9".into()),
            Error::Transport("frame 3 unrecoverable".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions() {
        let e: Error = volut_core::Error::InvalidRatio(0.0).into();
        assert!(matches!(e, Error::Core(_)));
        let e: Error = volut_pointcloud::Error::EmptyCloud("m".into()).into();
        assert!(matches!(e, Error::PointCloud(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
