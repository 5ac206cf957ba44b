//! Secure speculation schemes: the unsafe baseline, NDA permissive
//! propagation, and STT.
//!
//! The three schemes are expressed as *policies* over a single guard
//! mechanism (see [`crate::guard`]):
//!
//! * **Baseline** — no guards; every value broadcasts and every
//!   instruction executes as soon as its operands are ready.
//! * **NDA (permissive propagation)** — a speculative load's result is
//!   guarded by the load's own sequence number: dependents cannot *read*
//!   the value until the load has left every speculation shadow. Nothing
//!   propagates, no transmitter analysis is needed (§2.1).
//! * **STT** — a speculative load taints its destination; taint
//!   propagates through dependents as the *youngest root of taint*
//!   (YRoT); transmitters (memory instructions and branch resolution)
//!   cannot *execute* while an operand's YRoT is still speculative
//!   (§2.2).
//!
//! **ReCon** composes with either: a load whose word is *revealed* never
//! receives a guard (§5.4), restoring the memory-level parallelism the
//! scheme would otherwise sacrifice.

use core::fmt;

/// The secure speculation scheme a core runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SchemeKind {
    /// Unsafe out-of-order baseline (no speculation defense).
    #[default]
    Unsafe,
    /// Non-speculative Data Access, permissive-propagation variant.
    Nda,
    /// Speculative Taint Tracking.
    Stt,
}

impl SchemeKind {
    /// All schemes, baseline first.
    pub const ALL: [SchemeKind; 3] = [SchemeKind::Unsafe, SchemeKind::Nda, SchemeKind::Stt];

    /// Whether a speculative load's *value* is withheld from dependents
    /// until the load is safe (NDA's defense).
    #[must_use]
    pub fn delays_value_broadcast(self) -> bool {
        matches!(self, SchemeKind::Nda)
    }

    /// Whether taint propagates through dependent instructions (STT's
    /// DIFT mechanism).
    #[must_use]
    pub fn propagates_taint(self) -> bool {
        matches!(self, SchemeKind::Stt)
    }

    /// Whether transmitters with guarded operands are blocked from
    /// executing (STT's defense; NDA needs none because guarded values
    /// are never readable in the first place).
    #[must_use]
    pub fn blocks_transmitters(self) -> bool {
        matches!(self, SchemeKind::Stt)
    }

    /// Whether the scheme applies any defense at all.
    #[must_use]
    pub fn is_secure(self) -> bool {
        !matches!(self, SchemeKind::Unsafe)
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchemeKind::Unsafe => "unsafe",
            SchemeKind::Nda => "NDA",
            SchemeKind::Stt => "STT",
        };
        f.write_str(s)
    }
}

/// A scheme plus whether the ReCon optimization is stacked on top —
/// the six configurations of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SecureConfig {
    /// The underlying secure speculation scheme.
    pub kind: SchemeKind,
    /// Whether ReCon reveals lift the scheme's defenses.
    pub recon: bool,
}

impl SecureConfig {
    /// The five evaluated configurations, in the paper's order: unsafe,
    /// NDA, NDA+ReCon, STT, STT+ReCon.
    pub const ALL: [SecureConfig; 5] = [
        SecureConfig::unsafe_baseline(),
        SecureConfig::nda(),
        SecureConfig::nda_recon(),
        SecureConfig::stt(),
        SecureConfig::stt_recon(),
    ];

    /// The unsafe baseline.
    #[must_use]
    pub const fn unsafe_baseline() -> Self {
        SecureConfig {
            kind: SchemeKind::Unsafe,
            recon: false,
        }
    }

    /// NDA without ReCon.
    #[must_use]
    pub const fn nda() -> Self {
        SecureConfig {
            kind: SchemeKind::Nda,
            recon: false,
        }
    }

    /// NDA with ReCon.
    #[must_use]
    pub const fn nda_recon() -> Self {
        SecureConfig {
            kind: SchemeKind::Nda,
            recon: true,
        }
    }

    /// STT without ReCon.
    #[must_use]
    pub const fn stt() -> Self {
        SecureConfig {
            kind: SchemeKind::Stt,
            recon: false,
        }
    }

    /// STT with ReCon.
    #[must_use]
    pub const fn stt_recon() -> Self {
        SecureConfig {
            kind: SchemeKind::Stt,
            recon: true,
        }
    }

    /// Every accepted spelling for [`SecureConfig::parse`], for error
    /// messages.
    pub const PARSE_NAMES: &'static str = "unsafe|nda|nda+recon|stt|stt+recon";

    /// Parses a scheme name as spelled on the CLI and in `recon serve`
    /// job submissions (`unsafe`/`baseline`, `nda`, `nda+recon` or
    /// `nda-recon`, `stt`, `stt+recon` or `stt-recon`; case-insensitive).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "unsafe" | "baseline" => Some(SecureConfig::unsafe_baseline()),
            "nda" => Some(SecureConfig::nda()),
            "nda+recon" | "nda-recon" => Some(SecureConfig::nda_recon()),
            "stt" => Some(SecureConfig::stt()),
            "stt+recon" | "stt-recon" => Some(SecureConfig::stt_recon()),
            _ => None,
        }
    }

    /// A short label like `"STT+ReCon"` for reports.
    #[must_use]
    pub fn label(&self) -> String {
        if self.recon {
            format!("{}+ReCon", self.kind)
        } else {
            self.kind.to_string()
        }
    }
}

impl fmt::Display for SecureConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_defense() {
        let k = SchemeKind::Unsafe;
        assert!(!k.delays_value_broadcast());
        assert!(!k.propagates_taint());
        assert!(!k.blocks_transmitters());
        assert!(!k.is_secure());
    }

    #[test]
    fn nda_delays_broadcast_only() {
        let k = SchemeKind::Nda;
        assert!(k.delays_value_broadcast());
        assert!(!k.propagates_taint());
        assert!(!k.blocks_transmitters());
        assert!(k.is_secure());
    }

    #[test]
    fn stt_taints_and_blocks_transmitters() {
        let k = SchemeKind::Stt;
        assert!(!k.delays_value_broadcast());
        assert!(k.propagates_taint());
        assert!(k.blocks_transmitters());
        assert!(k.is_secure());
    }

    #[test]
    fn labels() {
        assert_eq!(SecureConfig::stt_recon().label(), "STT+ReCon");
        assert_eq!(SecureConfig::nda().label(), "NDA");
        assert_eq!(SecureConfig::unsafe_baseline().label(), "unsafe");
    }

    #[test]
    fn constructors_match_fields() {
        assert_eq!(
            SecureConfig::nda_recon(),
            SecureConfig {
                kind: SchemeKind::Nda,
                recon: true
            }
        );
        assert_eq!(
            SecureConfig::stt(),
            SecureConfig {
                kind: SchemeKind::Stt,
                recon: false
            }
        );
    }
}
