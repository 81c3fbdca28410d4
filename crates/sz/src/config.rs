//! Compressor configuration.

/// Which decorrelating predictor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Predictor {
    /// SZ3-style level-by-level interpolation with cubic splines where four
    /// neighbours exist, linear otherwise. Best for smooth fields — the
    /// paper's default substrate.
    #[default]
    InterpCubic,
    /// Same traversal, linear interpolation only (cheaper, slightly worse
    /// ratio) — used by the ablation benches.
    InterpLinear,
}

impl Predictor {
    /// Stable on-disk tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Predictor::InterpCubic => 0,
            Predictor::InterpLinear => 1,
        }
    }

    /// Inverse of [`Predictor::tag`].
    pub(crate) fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(Predictor::InterpCubic),
            1 => Some(Predictor::InterpLinear),
            _ => None,
        }
    }
}

/// Configuration for [`crate::SzCompressor`].
#[derive(Debug, Clone, Copy)]
pub struct SzConfig {
    /// Predictor choice.
    pub predictor: Predictor,
    /// Quantization radius: codes live in `(-radius, radius)`; residuals
    /// outside become escape-coded exact values. 2·radius is the Huffman
    /// alphabet size. SZ3's default is 32768.
    pub quant_radius: u32,
}

impl Default for SzConfig {
    fn default() -> Self {
        Self {
            predictor: Predictor::default(),
            quant_radius: 32768,
        }
    }
}

impl SzConfig {
    /// Config with linear interpolation.
    pub fn interp_linear() -> Self {
        Self {
            predictor: Predictor::InterpLinear,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_tag_roundtrip() {
        for p in [Predictor::InterpCubic, Predictor::InterpLinear] {
            assert_eq!(Predictor::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Predictor::from_tag(2), None);
        assert_eq!(Predictor::from_tag(99), None);
    }

    #[test]
    fn default_matches_sz3_conventions() {
        let c = SzConfig::default();
        assert_eq!(c.predictor, Predictor::InterpCubic);
        assert_eq!(c.quant_radius, 32768);
    }
}
