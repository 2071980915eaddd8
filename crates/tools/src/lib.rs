//! # elide-tools
//!
//! Command-line tools reproducing the workflow of the paper's artifact
//! (Appendix A): build the enclave, run the sanitizer as part of the build
//! (`-c` selects local data), start the server, run the app.
//!
//! | Tool | Paper analog |
//! |---|---|
//! | `ev64-ld` | `gcc`/`ld` producing `enclave.so` |
//! | `elide-whitelist` | `make` in `BaseEnclave` → `whitelist.json` |
//! | `elide-sanitize` | the python sanitizer (with its `-c` flag) |
//! | `elide-sign` | `sgx_sign` with the vendor key |
//! | `elide-server` | `server.py` |
//! | `elide-run` | `./app` |
//!
//! The simulated platform (CPU fuses + quoting-enclave key) persists in a
//! `platform.bin` file so separate tool invocations model the same machine.

#![forbid(unsafe_code)]
use std::path::Path;
use std::process::ExitCode;

/// Minimal argument cursor for the tools (no external dependencies).
#[derive(Debug)]
pub struct Args {
    args: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Captures `std::env::args` minus the program name.
    pub fn capture() -> Self {
        Args { args: std::env::args().skip(1).collect(), positional: Vec::new() }
    }

    /// Builds from an explicit vector (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        Args { args, positional: Vec::new() }
    }

    /// Extracts `--name value`, returning the value.
    pub fn opt(&mut self, name: &str) -> Option<String> {
        let pos = self.args.iter().position(|a| a == name)?;
        if pos + 1 >= self.args.len() {
            return None;
        }
        self.args.remove(pos);
        Some(self.args.remove(pos))
    }

    /// Extracts a boolean flag `--name` (or short form).
    pub fn flag(&mut self, name: &str) -> bool {
        match self.args.iter().position(|a| a == name) {
            Some(pos) => {
                self.args.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Finishes parsing: everything left must be positional (no stray
    /// `--options`).
    ///
    /// # Errors
    ///
    /// Returns the offending option string.
    pub fn finish(mut self) -> Result<Vec<String>, String> {
        if let Some(bad) = self.args.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unknown option {bad}"));
        }
        self.positional.append(&mut self.args);
        Ok(self.positional)
    }
}

/// Reads a whole file with a friendly error.
///
/// # Errors
///
/// Returns a printable message.
pub fn read_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Writes a whole file with a friendly error.
///
/// # Errors
///
/// Returns a printable message.
pub fn write_file(path: &str, data: &[u8]) -> Result<(), String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
    }
    std::fs::write(path, data).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Parses a hex string into bytes.
///
/// # Errors
///
/// Returns a printable message for odd length or bad digits.
pub fn parse_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex string must have even length".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| format!("bad hex: {e}")))
        .collect()
}

/// Formats bytes as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Standard `main` wrapper: prints errors to stderr and sets the exit code.
pub fn run_tool(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The persisted simulated platform: CPU fuses + quoting-enclave key.
pub struct PlatformFile {
    /// The processor.
    pub cpu: sgx_sim::SgxCpu,
    /// The quoting enclave.
    pub qe: sgx_sim::quote::QuotingEnclave,
}

impl PlatformFile {
    /// Loads `path`, or provisions a fresh platform and saves it there.
    ///
    /// # Errors
    ///
    /// Returns a printable message on IO or parse failure.
    pub fn load_or_create(path: &str) -> Result<PlatformFile, String> {
        if Path::new(path).exists() {
            let bytes = read_file(path)?;
            if bytes.len() < 52 || &bytes[..4] != b"PLAT" {
                return Err(format!("{path} is not a platform file"));
            }
            let cpu = sgx_sim::SgxCpu::from_bytes(&bytes[4..52])
                .ok_or_else(|| format!("{path}: bad cpu record"))?;
            let qe = sgx_sim::quote::QuotingEnclave::from_bytes(&cpu, &bytes[52..]).ok_or_else(
                || {
                    format!(
                        "{path}: bad quoting enclave record (expected {})",
                        elide_crypto::rsa::KEY_PAIR_FORMAT
                    )
                },
            )?;
            Ok(PlatformFile { cpu, qe })
        } else {
            let mut rng = elide_crypto::rng::OsRandom;
            let cpu = sgx_sim::SgxCpu::new(&mut rng);
            let qe = sgx_sim::quote::QuotingEnclave::provision(&cpu, &mut rng);
            let pf = PlatformFile { cpu, qe };
            pf.save(path)?;
            Ok(pf)
        }
    }

    /// Saves the platform file.
    ///
    /// # Errors
    ///
    /// Returns a printable message on IO failure.
    pub fn save(&self, path: &str) -> Result<(), String> {
        let mut out = Vec::new();
        out.extend_from_slice(b"PLAT");
        out.extend_from_slice(&self.cpu.to_bytes());
        out.extend_from_slice(&self.qe.to_bytes());
        write_file(path, &out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parsing() {
        let mut a = Args::from_vec(vec![
            "--out".into(),
            "x.so".into(),
            "-c".into(),
            "a.s".into(),
            "b.s".into(),
        ]);
        assert_eq!(a.opt("--out").as_deref(), Some("x.so"));
        assert!(a.flag("-c"));
        assert!(!a.flag("-c"));
        assert_eq!(a.finish().unwrap(), vec!["a.s".to_string(), "b.s".to_string()]);

        let a = Args::from_vec(vec!["--bogus".into(), "v".into()]);
        assert!(a.finish().is_err());
    }

    #[test]
    fn hex_roundtrip() {
        assert_eq!(parse_hex("00ff10").unwrap(), vec![0, 255, 16]);
        assert_eq!(to_hex(&[0, 255, 16]), "00ff10");
        assert!(parse_hex("abc").is_err());
        assert!(parse_hex("zz").is_err());
    }

    #[test]
    fn platform_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("elide-plat-{}", std::process::id()));
        let path = dir.join("platform.bin");
        let path = path.to_str().unwrap();
        let a = PlatformFile::load_or_create(path).unwrap();
        let b = PlatformFile::load_or_create(path).unwrap();
        // Same fuses: same seal keys for identical identities.
        let m = [1u8; 32];
        assert_eq!(
            a.cpu.to_bytes(),
            b.cpu.to_bytes(),
            "reloaded platform must be the same machine"
        );
        let _ = m;
        std::fs::remove_dir_all(dir).ok();
    }
}
