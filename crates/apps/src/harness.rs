//! Shared harness: builds each benchmark in two configurations — plain SGX
//! ("w/ SGX" in Figures 3 and 4) and SgxElide-protected ("w/ SgxElide") —
//! and wires up the platform, server and transport.

use elide_core::api::{protect, LaunchedApp, Mode, Platform, ProtectedPackage};
use elide_core::elide_asm::ELIDE_ASM;
use elide_core::error::ElideError;
use elide_core::protocol::InProcessTransport;
use elide_core::restore::{new_sealed_store, SealedStore};
use elide_core::sanitizer::DataPlacement;
use elide_core::server::AuthServer;
use elide_crypto::rng::SeededRandom;
use elide_crypto::rsa::RsaKeyPair;
use elide_enclave::image::EnclaveImageBuilder;
use elide_enclave::loader::{load_enclave, sign_enclave};
use elide_enclave::runtime::EnclaveRuntime;
use sgx_sim::quote::AttestationService;
use sgx_sim::SgxCpu;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One benchmark application: guest assembly plus its ecall surface.
#[derive(Debug, Clone)]
pub struct App {
    /// Benchmark name as it appears in the paper's tables.
    pub name: &'static str,
    /// Guest assembly (the trusted component).
    pub asm: String,
    /// Trusted functions exposed as ecalls, in index order.
    pub ecalls: Vec<&'static str>,
}

impl App {
    /// Ecall index map for the **plain** build (no elide_restore).
    pub fn plain_indices(&self) -> HashMap<String, u64> {
        self.ecalls.iter().enumerate().map(|(i, n)| (n.to_string(), i as u64)).collect()
    }

    /// Ecall index map for the **protected** build (elide_restore last).
    pub fn protected_indices(&self) -> HashMap<String, u64> {
        let mut m = self.plain_indices();
        m.insert("elide_restore".to_string(), self.ecalls.len() as u64);
        m
    }

    /// Builds the plain enclave image (baseline "w/ SGX").
    ///
    /// # Errors
    ///
    /// Propagates assembler/linker errors.
    pub fn build_plain_image(&self) -> Result<Vec<u8>, ElideError> {
        let mut b = EnclaveImageBuilder::new();
        b.source(&self.asm);
        for e in &self.ecalls {
            b.ecall(e);
        }
        Ok(b.build()?)
    }

    /// Builds the image linked with the SgxElide runtime (pre-sanitizer).
    ///
    /// # Errors
    ///
    /// Propagates assembler/linker errors.
    pub fn build_elide_image(&self) -> Result<Vec<u8>, ElideError> {
        let mut b = EnclaveImageBuilder::new();
        b.source(ELIDE_ASM);
        b.source(&self.asm);
        for e in &self.ecalls {
            b.ecall(e);
        }
        b.ecall("elide_restore");
        Ok(b.build()?)
    }
}

/// A plain (unprotected) launched benchmark.
pub struct PlainApp {
    /// The runtime.
    pub runtime: EnclaveRuntime,
    /// Ecall index map.
    pub indices: HashMap<String, u64>,
}

/// Launches the plain build on a fresh platform.
///
/// # Errors
///
/// Propagates build/load errors.
pub fn launch_plain(app: &App, seed: u64) -> Result<PlainApp, ElideError> {
    let image = app.build_plain_image()?;
    let mut rng = SeededRandom::new(seed);
    let cpu = SgxCpu::new(&mut rng);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let sig = sign_enclave(&image, &vendor, 1, 1)?;
    let loaded = load_enclave(&cpu, &image, &sig)?;
    let runtime = EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(seed ^ 1)));
    Ok(PlainApp { runtime, indices: app.plain_indices() })
}

/// A protected launched benchmark with its whole environment.
pub struct ProtectedApp {
    /// The launched (sanitized) enclave.
    pub app: LaunchedApp,
    /// Ecall index map (includes `elide_restore`).
    pub indices: HashMap<String, u64>,
    /// The protected package (for re-launches and attacker analysis).
    pub package: ProtectedPackage,
    /// The platform, reusable for re-launches.
    pub platform: Platform,
    /// Shared server handle (for assertions).
    pub server: Arc<AuthServer>,
    /// The sealed store shared across launches.
    pub sealed: SealedStore,
}

impl ProtectedApp {
    /// Runs `elide_restore`. Returns retired instructions.
    ///
    /// # Errors
    ///
    /// See [`LaunchedApp::restore`].
    pub fn restore(&mut self) -> Result<u64, ElideError> {
        let idx = self.indices["elide_restore"];
        Ok(self.app.restore(idx)?.instructions)
    }

    /// Relaunches the same package on the same platform (e.g. to exercise
    /// the sealed fast path). The old runtime is dropped.
    ///
    /// # Errors
    ///
    /// Propagates load errors.
    pub fn relaunch(&mut self, seed: u64) -> Result<(), ElideError> {
        let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&self.server))));
        self.app =
            self.package.launch(&self.platform, transport, Arc::clone(&self.sealed), seed)?;
        Ok(())
    }

    /// Relaunches from the sealed blob with **no server wired** — the
    /// warm-start path. The next [`Self::restore`] must take the sealed
    /// fast path; any server contact fails with a transport error.
    ///
    /// # Errors
    ///
    /// [`ElideError::NoSealedState`] before the first successful restore;
    /// load errors as in [`Self::relaunch`].
    pub fn warm_relaunch(&mut self, seed: u64) -> Result<(), ElideError> {
        let plan = self.package.image_plan()?;
        self.app =
            self.package.warm_start(&plan, &self.platform, Arc::clone(&self.sealed), seed)?;
        Ok(())
    }
}

/// Builds, protects and launches `app` with an in-process server.
///
/// # Errors
///
/// Propagates any stage of the Figure 1 pipeline.
pub fn launch_protected(
    app: &App,
    placement: DataPlacement,
    seed: u64,
) -> Result<ProtectedApp, ElideError> {
    let image = app.build_elide_image()?;
    let mut rng = SeededRandom::new(seed);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(&image, &vendor, &Mode::Whitelist, placement, &mut rng)?;
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = Arc::new(package.make_server(ias));
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    let sealed = new_sealed_store();
    let launched = package.launch(&platform, transport, Arc::clone(&sealed), seed ^ 2)?;
    Ok(ProtectedApp {
        app: launched,
        indices: app.protected_indices(),
        package,
        platform,
        server,
        sealed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_app() -> App {
        App {
            name: "tiny",
            asm: ".section text\n.global f\n.func f\n    movi r0, 5\n    ret\n.endfunc\n"
                .to_string(),
            ecalls: vec!["f"],
        }
    }

    #[test]
    fn plain_launch_runs() {
        let app = tiny_app();
        let mut p = launch_plain(&app, 1).unwrap();
        assert_eq!(p.runtime.ecall(p.indices["f"], &[], 0).unwrap().status, 5);
    }

    #[test]
    fn protected_launch_requires_restore() {
        let app = tiny_app();
        let mut p = launch_protected(&app, DataPlacement::Remote, 2).unwrap();
        let f = p.indices["f"];
        assert!(p.app.runtime.ecall(f, &[], 0).is_err(), "sanitized code must fault");
        p.restore().unwrap();
        assert_eq!(p.app.runtime.ecall(f, &[], 0).unwrap().status, 5);
    }

    #[test]
    fn sealed_relaunch_skips_server() {
        let app = tiny_app();
        let mut p = launch_protected(&app, DataPlacement::Remote, 3).unwrap();
        p.restore().unwrap();
        let handshakes_before = p.server.handshakes();
        assert!(p.sealed.lock().unwrap().is_some(), "restore must seal");
        p.relaunch(9).unwrap();
        p.restore().unwrap();
        let f = p.indices["f"];
        assert_eq!(p.app.runtime.ecall(f, &[], 0).unwrap().status, 5);
        assert_eq!(
            p.server.handshakes(),
            handshakes_before,
            "second restore must not contact the server"
        );
    }
}
