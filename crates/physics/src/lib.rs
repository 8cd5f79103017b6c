//! # physics
//!
//! Particle-physics kinematics and histogramming kernels used by the ADL
//! benchmark queries.
//!
//! Every query engine in the workspace (SQL, JSONiq/FLWOR, RDataFrame-style)
//! and the reference implementations call into the same kernels defined
//! here, so cross-engine histogram validation is exact: identical inputs go
//! through identical floating-point operation sequences.
//!
//! The two core abstractions are:
//!
//! * [`FourMomentum`] — a relativistic four-vector in Cartesian
//!   (px, py, pz, E) representation with conversions from/to the detector
//!   coordinates (pt, η, φ, mass) that HEP data sets store, and
//! * [`Histogram`] — an equi-width 1-D histogram with dedicated under- and
//!   overflow bins, the output type of all eight ADL queries.

pub mod fourvec;
pub mod hist;
pub mod kinematics;
pub mod math;

pub use fourvec::FourMomentum;
pub use hist::{HistSpec, Histogram};
pub use kinematics::{delta_phi, delta_r, invariant_mass_2, transverse_mass};

#[cfg(test)]
mod proptests;
