//! Error type shared by the cryptographic primitives.

use std::error::Error;
use std::fmt;

/// Errors returned by the primitives in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A key of an unsupported length was supplied (length in bytes).
    InvalidKeyLength(usize),
    /// An authentication tag or signature failed to verify.
    AuthenticationFailed,
    /// An input had an invalid length for the requested operation.
    InvalidLength { expected: usize, actual: usize },
    /// A signature did not verify.
    BadSignature,
    /// A message was too large for the RSA modulus.
    MessageTooLarge,
    /// A serialized key did not decode; carries the expected encoding.
    MalformedKey(&'static str),
    /// A freshly computed signature failed its own check against the public
    /// key (a fault during signing, or factors that are not primes), so it
    /// was withheld.
    SignatureFault,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidKeyLength(n) => write!(f, "invalid key length of {n} bytes"),
            CryptoError::AuthenticationFailed => write!(f, "authentication tag mismatch"),
            CryptoError::InvalidLength { expected, actual } => {
                write!(f, "invalid input length: expected {expected}, got {actual}")
            }
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::MessageTooLarge => write!(f, "message too large for modulus"),
            CryptoError::MalformedKey(format) => write!(f, "malformed key: expected {format}"),
            CryptoError::SignatureFault => write!(f, "signature failed its own verification"),
        }
    }
}

impl Error for CryptoError {}
