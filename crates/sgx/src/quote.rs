//! Remote attestation: the quoting enclave and the attestation service.
//!
//! The quoting enclave turns a local-attestation [`Report`] into a *quote*
//! signed with a device-specific key; a remote verifier (modeling Intel's
//! attestation service, the root of trust per §2.1) checks the signature
//! against its database of known device keys. The SgxElide authentication
//! server uses this before releasing any secret.

use crate::enclave::SgxCpu;
use crate::error::SgxError;
use crate::report::{verify_report_with_hw, Report};
use elide_crypto::rng::RandomSource;
use elide_crypto::rsa::{RsaKeyPair, RsaPublicKey};

/// Measurement of the (simulated) quoting enclave itself; reports must be
/// targeted at this value to be quoted.
pub const QE_MEASUREMENT: [u8; 32] = [0x51; 32];

/// A quote: the report body signed by the device key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Quoted enclave's MRENCLAVE.
    pub mrenclave: [u8; 32],
    /// Quoted enclave's MRSIGNER.
    pub mrsigner: [u8; 32],
    /// Report data carried through from the report.
    pub report_data: [u8; 64],
    /// Device signature.
    pub signature: Vec<u8>,
    /// Serialized device public key (identifies the platform).
    pub device_key: Vec<u8>,
}

impl Quote {
    fn payload(mrenclave: &[u8; 32], mrsigner: &[u8; 32], report_data: &[u8; 64]) -> Vec<u8> {
        let mut p = Vec::with_capacity(5 + 32 + 32 + 64);
        p.extend_from_slice(b"QUOTE");
        p.extend_from_slice(mrenclave);
        p.extend_from_slice(mrsigner);
        p.extend_from_slice(report_data);
        p
    }

    /// Serializes the quote with length-prefixed variable fields.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.mrenclave);
        out.extend_from_slice(&self.mrsigner);
        out.extend_from_slice(&self.report_data);
        out.extend_from_slice(&(self.signature.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.signature);
        out.extend_from_slice(&(self.device_key.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.device_key);
        out
    }

    /// Parses a quote serialized by [`Quote::to_bytes`]. The encoding is
    /// canonical: trailing bytes after `device_key` are rejected, so two
    /// distinct byte strings never parse to the same quote.
    pub fn from_bytes(bytes: &[u8]) -> Option<Quote> {
        if bytes.len() < 132 {
            return None;
        }
        let mrenclave: [u8; 32] = bytes[0..32].try_into().ok()?;
        let mrsigner: [u8; 32] = bytes[32..64].try_into().ok()?;
        let report_data: [u8; 64] = bytes[64..128].try_into().ok()?;
        let mut off = 128;
        let sig_len = u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?) as usize;
        off += 4;
        let signature = bytes.get(off..off + sig_len)?.to_vec();
        off += sig_len;
        let key_len = u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?) as usize;
        off += 4;
        let device_key = bytes.get(off..off + key_len)?.to_vec();
        off += key_len;
        if off != bytes.len() {
            return None;
        }
        Some(Quote { mrenclave, mrsigner, report_data, signature, device_key })
    }
}

/// The platform quoting enclave: holds the device attestation key.
pub struct QuotingEnclave {
    cpu: SgxCpu,
    device_key: RsaKeyPair,
}

impl std::fmt::Debug for QuotingEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuotingEnclave").finish_non_exhaustive()
    }
}

impl QuotingEnclave {
    /// Provisions a quoting enclave on `cpu` with a fresh device key.
    pub fn provision(cpu: &SgxCpu, rng: &mut dyn RandomSource) -> Self {
        QuotingEnclave { cpu: cpu.clone(), device_key: RsaKeyPair::generate(512, rng) }
    }

    /// The device public key, to be registered with the attestation service
    /// (the analog of Intel provisioning).
    pub fn device_public_key(&self) -> &RsaPublicKey {
        self.device_key.public_key()
    }

    /// Persists the quoting enclave's device key (simulator persistence).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.device_key.to_bytes()
    }

    /// Restores a quoting enclave persisted by [`QuotingEnclave::to_bytes`]
    /// onto (the same) `cpu`.
    pub fn from_bytes(cpu: &SgxCpu, bytes: &[u8]) -> Option<QuotingEnclave> {
        Some(QuotingEnclave { cpu: cpu.clone(), device_key: RsaKeyPair::from_bytes(bytes).ok()? })
    }

    /// Verifies a report targeted at the quoting enclave and signs a quote.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ReportMacMismatch`] for reports not produced on
    /// this processor or not targeted at the quoting enclave, and
    /// [`SgxError::BadQuote`] if signing fails.
    pub fn quote(&self, report: &Report) -> Result<Quote, SgxError> {
        if !verify_report_with_hw(self.cpu.hardware(), &QE_MEASUREMENT, report) {
            return Err(SgxError::ReportMacMismatch);
        }
        let payload = Quote::payload(&report.mrenclave, &report.mrsigner, &report.report_data);
        let signature = self.device_key.sign(&payload).map_err(|_| SgxError::BadQuote)?;
        Ok(Quote {
            mrenclave: report.mrenclave,
            mrsigner: report.mrsigner,
            report_data: report.report_data,
            signature,
            device_key: self.device_key.public_key().to_bytes(),
        })
    }
}

/// The remote attestation service: a registry of genuine device keys.
#[derive(Debug, Default)]
pub struct AttestationService {
    devices: Vec<RsaPublicKey>,
}

impl AttestationService {
    /// Creates an empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a genuine device key (provisioning).
    pub fn register_device(&mut self, key: RsaPublicKey) {
        self.devices.push(key);
    }

    /// Verifies a quote: the device key must be registered and the
    /// signature must check out.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::BadQuote`] for unknown devices or bad signatures.
    pub fn verify_quote(&self, quote: &Quote) -> Result<(), SgxError> {
        let key = RsaPublicKey::from_bytes(&quote.device_key).map_err(|_| SgxError::BadQuote)?;
        if !self.devices.contains(&key) {
            return Err(SgxError::BadQuote);
        }
        let payload = Quote::payload(&quote.mrenclave, &quote.mrsigner, &quote.report_data);
        key.verify(&payload, &quote.signature).map_err(|_| SgxError::BadQuote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::Enclave;
    use crate::epc::{PagePerms, PageType};
    use crate::report::{ereport, TargetInfo};
    use crate::sigstruct::SigStruct;
    use elide_crypto::rng::SeededRandom;

    fn make_enclave(cpu: &SgxCpu) -> Enclave {
        let mut e = cpu.ecreate(0x100000, 0x1000).unwrap();
        e.eadd(0x100000, &[3; 4096], PagePerms::RX, PageType::Reg).unwrap();
        for i in 0..16 {
            e.eextend(0x100000 + i * 256).unwrap();
        }
        let kp = RsaKeyPair::generate(512, &mut SeededRandom::new(2));
        let sig = SigStruct::sign(&kp, e.current_measurement().unwrap(), 1, 1).unwrap();
        e.einit(&sig).unwrap();
        e
    }

    #[test]
    fn full_remote_attestation_flow() {
        let mut rng = SeededRandom::new(9);
        let cpu = SgxCpu::new(&mut rng);
        let qe = QuotingEnclave::provision(&cpu, &mut rng);
        let mut ias = AttestationService::new();
        ias.register_device(qe.device_public_key().clone());

        let e = make_enclave(&cpu);
        let mut data = [0u8; 64];
        data[0] = 0xAB;
        let report = ereport(&e, &TargetInfo { mrenclave: QE_MEASUREMENT }, data).unwrap();
        let quote = qe.quote(&report).unwrap();
        ias.verify_quote(&quote).unwrap();
        assert_eq!(quote.mrenclave, e.mrenclave());
        assert_eq!(quote.report_data[0], 0xAB);
    }

    #[test]
    fn quote_with_a_padded_device_key_is_refused() {
        // The registered key plus junk must not name the same device: the
        // key encoding is canonical, like the quote around it.
        let mut rng = SeededRandom::new(9);
        let cpu = SgxCpu::new(&mut rng);
        let qe = QuotingEnclave::provision(&cpu, &mut rng);
        let mut ias = AttestationService::new();
        ias.register_device(qe.device_public_key().clone());
        let e = make_enclave(&cpu);
        let report = ereport(&e, &TargetInfo { mrenclave: QE_MEASUREMENT }, [0u8; 64]).unwrap();
        let mut quote = qe.quote(&report).unwrap();
        ias.verify_quote(&quote).unwrap();
        quote.device_key.extend_from_slice(&[0xEE; 4]);
        assert_eq!(ias.verify_quote(&quote), Err(SgxError::BadQuote));
        let reparsed = Quote::from_bytes(&quote.to_bytes()).unwrap();
        assert_eq!(ias.verify_quote(&reparsed), Err(SgxError::BadQuote));
    }

    #[test]
    fn report_for_other_target_not_quotable() {
        let mut rng = SeededRandom::new(9);
        let cpu = SgxCpu::new(&mut rng);
        let qe = QuotingEnclave::provision(&cpu, &mut rng);
        let e = make_enclave(&cpu);
        let report = ereport(&e, &TargetInfo { mrenclave: [0u8; 32] }, [0u8; 64]).unwrap();
        assert_eq!(qe.quote(&report), Err(SgxError::ReportMacMismatch));
    }

    #[test]
    fn unknown_device_rejected() {
        let mut rng = SeededRandom::new(9);
        let cpu = SgxCpu::new(&mut rng);
        let qe = QuotingEnclave::provision(&cpu, &mut rng);
        let ias = AttestationService::new(); // nothing registered
        let e = make_enclave(&cpu);
        let report = ereport(&e, &TargetInfo { mrenclave: QE_MEASUREMENT }, [0u8; 64]).unwrap();
        let quote = qe.quote(&report).unwrap();
        assert_eq!(ias.verify_quote(&quote), Err(SgxError::BadQuote));
    }

    #[test]
    fn quote_encoding_is_canonical() {
        let mut rng = SeededRandom::new(9);
        let cpu = SgxCpu::new(&mut rng);
        let qe = QuotingEnclave::provision(&cpu, &mut rng);
        let e = make_enclave(&cpu);
        let report = ereport(&e, &TargetInfo { mrenclave: QE_MEASUREMENT }, [0u8; 64]).unwrap();
        let quote = qe.quote(&report).unwrap();
        let bytes = quote.to_bytes();
        assert_eq!(Quote::from_bytes(&bytes), Some(quote));
        // Appended garbage must not parse back to the original quote.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(Quote::from_bytes(&padded), None);
        padded.extend_from_slice(&[0xFF; 16]);
        assert_eq!(Quote::from_bytes(&padded), None);
        // Truncation anywhere must fail too.
        for cut in [bytes.len() - 1, 131, 64, 0] {
            assert_eq!(Quote::from_bytes(&bytes[..cut]), None);
        }
    }

    #[test]
    fn tampered_quote_rejected() {
        let mut rng = SeededRandom::new(9);
        let cpu = SgxCpu::new(&mut rng);
        let qe = QuotingEnclave::provision(&cpu, &mut rng);
        let mut ias = AttestationService::new();
        ias.register_device(qe.device_public_key().clone());
        let e = make_enclave(&cpu);
        let report = ereport(&e, &TargetInfo { mrenclave: QE_MEASUREMENT }, [0u8; 64]).unwrap();
        let mut quote = qe.quote(&report).unwrap();
        quote.mrenclave[0] ^= 1; // claim to be a different enclave
        assert_eq!(ias.verify_quote(&quote), Err(SgxError::BadQuote));
    }
}
