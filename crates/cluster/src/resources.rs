//! Resource kinds and per-kind usage vectors shared across the workspace.

use std::fmt;
use std::ops::{Index, IndexMut};

/// The three resource dimensions the EPL exposes (`cpu`, `mem`, `net`).
///
/// Matches the `res` production of the paper's Fig. 3 grammar.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ResourceKind {
    /// Processor time.
    Cpu,
    /// Resident memory.
    Mem,
    /// Network bandwidth.
    Net,
}

impl ResourceKind {
    /// All resource kinds, in a fixed order usable for indexing.
    pub const ALL: [ResourceKind; 3] = [ResourceKind::Cpu, ResourceKind::Mem, ResourceKind::Net];

    /// Returns the dense index of this kind (0, 1 or 2).
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Mem => 1,
            ResourceKind::Net => 2,
        }
    }

    /// Returns the EPL keyword for this kind.
    pub const fn keyword(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Mem => "mem",
            ResourceKind::Net => "net",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A per-resource usage vector, typically holding fractions in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use plasma_cluster::{ResourceKind, ResourceUsage};
///
/// let mut u = ResourceUsage::ZERO;
/// u[ResourceKind::Cpu] = 0.85;
/// assert!(u[ResourceKind::Cpu] > 0.8);
/// assert_eq!(u[ResourceKind::Net], 0.0);
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ResourceUsage([f64; 3]);

impl ResourceUsage {
    /// The all-zero usage vector.
    pub const ZERO: ResourceUsage = ResourceUsage([0.0; 3]);

    /// Builds a usage vector from explicit components.
    pub const fn new(cpu: f64, mem: f64, net: f64) -> Self {
        ResourceUsage([cpu, mem, net])
    }

    /// Returns the CPU component.
    pub fn cpu(&self) -> f64 {
        self.0[0]
    }

    /// Returns the memory component.
    pub fn mem(&self) -> f64 {
        self.0[1]
    }

    /// Returns the network component.
    pub fn net(&self) -> f64 {
        self.0[2]
    }

    /// Component-wise addition.
    pub fn add(&self, other: &ResourceUsage) -> ResourceUsage {
        ResourceUsage([
            self.0[0] + other.0[0],
            self.0[1] + other.0[1],
            self.0[2] + other.0[2],
        ])
    }

    /// Returns the largest component.
    pub fn max_component(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

impl Index<ResourceKind> for ResourceUsage {
    type Output = f64;
    fn index(&self, kind: ResourceKind) -> &f64 {
        &self.0[kind.index()]
    }
}

impl IndexMut<ResourceKind> for ResourceUsage {
    fn index_mut(&mut self, kind: ResourceKind) -> &mut f64 {
        &mut self.0[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_index() {
        for kind in ResourceKind::ALL {
            assert_eq!(ResourceKind::ALL[kind.index()], kind);
        }
    }

    #[test]
    fn keywords_match_epl() {
        assert_eq!(ResourceKind::Cpu.to_string(), "cpu");
        assert_eq!(ResourceKind::Mem.to_string(), "mem");
        assert_eq!(ResourceKind::Net.to_string(), "net");
    }

    #[test]
    fn usage_indexing_and_ops() {
        let a = ResourceUsage::new(0.5, 0.25, 0.75);
        assert_eq!(a[ResourceKind::Cpu], 0.5);
        assert_eq!(a.mem(), 0.25);
        let b = a.add(&ResourceUsage::new(0.1, 0.0, 0.0));
        assert!((b.cpu() - 0.6).abs() < 1e-12);
        assert_eq!(a.max_component(), 0.75);
    }
}
