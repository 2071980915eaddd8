//! Store layer: the secrets one authentication server can provision.
//!
//! The paper's `server.py` holds exactly one `(secret.meta, secret.data)`
//! pair. A production service provisions *many* sanitized enclaves, so the
//! store keys entries by MRENCLAVE (with an MRSIGNER policy per entry) and
//! resolves the right secret from the attested quote presented in the
//! handshake. Registration happens at startup, either programmatically or
//! from a directory of `NAME.secret.meta` / `NAME.secret.data` artifacts.

use crate::error::ElideError;
use crate::meta::SecretMeta;
use crate::server::ExpectedIdentity;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// One provisioned secret: everything the server releases for a single
/// sanitized enclave.
pub struct SecretEntry {
    /// Registration name (diagnostics; the directory stem when loaded).
    pub name: String,
    /// The server-side metadata.
    pub meta: SecretMeta,
    /// The plaintext secret payload (empty in local mode).
    pub data: Vec<u8>,
    /// Identity policy an attested quote must satisfy.
    pub expected: ExpectedIdentity,
}

impl std::fmt::Debug for SecretEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecretEntry")
            .field("name", &self.name)
            .field("data_len", &self.data.len())
            .field("expected", &self.expected)
            .finish()
    }
}

impl SecretEntry {
    /// True if a quote with these measurements satisfies this entry's
    /// identity policy.
    pub fn matches(&self, mrenclave: &[u8; 32], mrsigner: &[u8; 32]) -> bool {
        if let Some(want) = self.expected.mrenclave {
            if want != *mrenclave {
                return false;
            }
        }
        if let Some(want) = self.expected.mrsigner {
            if want != *mrsigner {
                return false;
            }
        }
        true
    }
}

/// MRENCLAVE-keyed collection of [`SecretEntry`]s.
///
/// Entries pinned to a measurement resolve by exact lookup; entries with
/// no pinned MRENCLAVE (`expected.mrenclave == None`) act as fallbacks,
/// preserving the seed's single-tenant "accept any enclave" behavior.
#[derive(Default)]
pub struct SecretStore {
    pinned: HashMap<[u8; 32], Arc<SecretEntry>>,
    unpinned: Vec<Arc<SecretEntry>>,
}

impl std::fmt::Debug for SecretStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecretStore")
            .field("pinned", &self.pinned.len())
            .field("unpinned", &self.unpinned.len())
            .finish()
    }
}

impl SecretStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an entry. A pinned entry replaces any previous entry with
    /// the same MRENCLAVE.
    pub fn insert(&mut self, entry: SecretEntry) {
        let entry = Arc::new(entry);
        match entry.expected.mrenclave {
            Some(mrenclave) => {
                self.pinned.insert(mrenclave, entry);
            }
            None => self.unpinned.push(entry),
        }
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.pinned.len() + self.unpinned.len()
    }

    /// True when no entries are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered entry names (sorted, diagnostics).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.pinned.values().chain(self.unpinned.iter()).map(|e| e.name.clone()).collect();
        names.sort();
        names
    }

    /// Resolves the entry for an attested quote's measurements: exact
    /// MRENCLAVE match first (subject to its MRSIGNER policy), then the
    /// first unpinned entry whose policy accepts the quote.
    pub fn lookup(&self, mrenclave: &[u8; 32], mrsigner: &[u8; 32]) -> Option<Arc<SecretEntry>> {
        if let Some(entry) = self.pinned.get(mrenclave) {
            if entry.matches(mrenclave, mrsigner) {
                return Some(Arc::clone(entry));
            }
            return None; // right enclave, wrong signer: never fall through
        }
        self.unpinned.iter().find(|e| e.matches(mrenclave, mrsigner)).map(Arc::clone)
    }

    /// Loads every `NAME.secret.meta` in `dir`, pairing it with
    /// `NAME.secret.data` (required unless the meta is local-mode) and an
    /// optional `NAME.mrenclave` hex sidecar that pins the entry.
    ///
    /// # Errors
    ///
    /// [`ElideError::Store`] on I/O failures, unparsable meta files, or a
    /// missing data file for a remote-mode meta.
    pub fn load_dir(dir: &Path) -> Result<SecretStore, ElideError> {
        let mut store = SecretStore::new();
        let err = |msg: String| ElideError::Store(msg);
        let entries = std::fs::read_dir(dir)
            .map_err(|e| err(format!("read secrets dir {}: {e}", dir.display())))?;
        for item in entries {
            let item = item.map_err(|e| err(format!("read secrets dir: {e}")))?;
            let path = item.path();
            let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(name) = file_name.strip_suffix(".secret.meta") else { continue };

            let meta_bytes =
                std::fs::read(&path).map_err(|e| err(format!("read {}: {e}", path.display())))?;
            let meta = SecretMeta::from_file_bytes(&meta_bytes)
                .ok_or_else(|| err(format!("unparsable meta file {}", path.display())))?;

            let data_path = dir.join(format!("{name}.secret.data"));
            let data = match std::fs::read(&data_path) {
                Ok(bytes) => bytes,
                // Only a genuinely absent data file is acceptable (and only
                // in local mode); permission or I/O errors must not be
                // mistaken for "no payload".
                Err(e) if e.kind() == std::io::ErrorKind::NotFound && meta.is_local() => Vec::new(),
                Err(e) => return Err(err(format!("read {}: {e}", data_path.display()))),
            };

            let mrenclave_path = dir.join(format!("{name}.mrenclave"));
            let mrenclave = match std::fs::read_to_string(&mrenclave_path) {
                Ok(hex) => Some(parse_mrenclave(hex.trim()).ok_or_else(|| {
                    err(format!("bad mrenclave hex in {}", mrenclave_path.display()))
                })?),
                // An unreadable sidecar must fail loudly: treating it as "no
                // sidecar" would silently demote a pinned secret to an
                // unpinned fallback served to any attested enclave.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => {
                    return Err(err(format!("read {}: {e}", mrenclave_path.display())));
                }
            };

            store.insert(SecretEntry {
                name: name.to_string(),
                meta,
                data,
                expected: ExpectedIdentity { mrenclave, mrsigner: None },
            });
        }
        Ok(store)
    }
}

/// Parses a 64-char hex MRENCLAVE.
pub fn parse_mrenclave(hex: &str) -> Option<[u8; 32]> {
    if hex.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, byte) in out.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).ok()?;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(local: bool) -> SecretMeta {
        SecretMeta {
            flags: if local { crate::meta::FLAG_ENCRYPTED_LOCAL } else { 0 },
            data_len: 4,
            text_len: 4,
            restore_offset: 0,
            key: [1; 16],
            iv: [2; 12],
            tag: [3; 16],
        }
    }

    fn entry(name: &str, mrenclave: Option<[u8; 32]>, mrsigner: Option<[u8; 32]>) -> SecretEntry {
        SecretEntry {
            name: name.into(),
            meta: meta(false),
            data: name.as_bytes().to_vec(),
            expected: ExpectedIdentity { mrenclave, mrsigner },
        }
    }

    #[test]
    fn pinned_lookup_resolves_by_mrenclave() {
        let mut store = SecretStore::new();
        store.insert(entry("a", Some([0xAA; 32]), None));
        store.insert(entry("b", Some([0xBB; 32]), None));
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup(&[0xAA; 32], &[0; 32]).unwrap().name, "a");
        assert_eq!(store.lookup(&[0xBB; 32], &[0; 32]).unwrap().name, "b");
        assert!(store.lookup(&[0xCC; 32], &[0; 32]).is_none());
    }

    #[test]
    fn mrsigner_policy_enforced() {
        let mut store = SecretStore::new();
        store.insert(entry("a", Some([0xAA; 32]), Some([0x51; 32])));
        assert!(store.lookup(&[0xAA; 32], &[0x51; 32]).is_some());
        assert!(store.lookup(&[0xAA; 32], &[0x52; 32]).is_none());
    }

    #[test]
    fn unpinned_entry_is_fallback_only() {
        let mut store = SecretStore::new();
        store.insert(entry("pinned", Some([0xAA; 32]), None));
        store.insert(entry("any", None, None));
        assert_eq!(store.lookup(&[0xAA; 32], &[0; 32]).unwrap().name, "pinned");
        assert_eq!(store.lookup(&[0xDD; 32], &[0; 32]).unwrap().name, "any");
    }

    #[test]
    fn load_dir_pairs_meta_data_and_mrenclave() {
        let dir = std::env::temp_dir().join(format!("elide-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("one.secret.meta"), meta(false).to_file_bytes()).unwrap();
        std::fs::write(dir.join("one.secret.data"), b"payload-one").unwrap();
        std::fs::write(dir.join("one.mrenclave"), "11".repeat(32)).unwrap();
        std::fs::write(dir.join("two.secret.meta"), meta(true).to_file_bytes()).unwrap();
        // local-mode entry: no data file needed.
        std::fs::write(dir.join("unrelated.txt"), b"ignored").unwrap();

        let store = SecretStore::load_dir(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.names(), vec!["one".to_string(), "two".to_string()]);
        let one = store.lookup(&[0x11; 32], &[0; 32]).unwrap();
        assert_eq!(one.data, b"payload-one");
        // "two" is unpinned: resolves for any other measurement.
        assert_eq!(store.lookup(&[0x99; 32], &[0; 32]).unwrap().name, "two");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_rejects_missing_remote_data() {
        let dir = std::env::temp_dir().join(format!("elide-store-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("orphan.secret.meta"), meta(false).to_file_bytes()).unwrap();
        assert!(SecretStore::load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_propagates_unreadable_sidecar() {
        // A sidecar that exists but cannot be read (here: it is a
        // directory) must be a hard error, not a silent unpin.
        let dir = std::env::temp_dir().join(format!("elide-store-sidecar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("one.secret.meta"), meta(false).to_file_bytes()).unwrap();
        std::fs::write(dir.join("one.secret.data"), b"payload").unwrap();
        std::fs::create_dir_all(dir.join("one.mrenclave")).unwrap();
        assert!(SecretStore::load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_mrenclave_validates() {
        assert!(parse_mrenclave(&"ab".repeat(32)).is_some());
        assert!(parse_mrenclave("xyz").is_none());
        assert!(parse_mrenclave(&"zz".repeat(32)).is_none());
    }
}
