//! Error type shared by the point-cloud substrate.

use std::fmt;

/// Errors returned by the point-cloud substrate.
#[derive(Debug)]
pub enum Error {
    /// An argument was outside its documented domain (e.g. a sampling ratio
    /// outside `(0, 1]` or `k = 0` neighbors requested).
    InvalidArgument(String),
    /// The operation requires a non-empty cloud but received an empty one.
    EmptyCloud(String),
    /// The cloud's attribute arrays disagree in length.
    AttributeMismatch {
        /// Number of positions in the cloud.
        positions: usize,
        /// Number of attribute entries found.
        attributes: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::EmptyCloud(op) => write!(f, "operation `{op}` requires a non-empty point cloud"),
            Error::AttributeMismatch { positions, attributes } => write!(
                f,
                "attribute length mismatch: {positions} positions but {attributes} attribute entries"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errs: Vec<Error> = vec![
            Error::InvalidArgument("ratio must be in (0, 1]".into()),
            Error::EmptyCloud("chamfer_distance".into()),
            Error::AttributeMismatch {
                positions: 3,
                attributes: 2,
            },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
