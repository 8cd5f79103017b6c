//! Per-event column access for user callbacks.

use std::collections::HashMap;
use std::sync::Arc;

/// A value produced by a `Define` callback: a per-event scalar or a
/// per-event variable-length vector (ROOT's `RVec` analog).
#[derive(Clone, Debug, PartialEq)]
pub enum ColValue {
    /// Scalar per event.
    F64(f64),
    /// Variable-length numeric vector per event.
    Arr(Vec<f64>),
}

impl ColValue {
    /// Scalar accessor; panics on arrays (programming error in the query).
    pub fn f64(&self) -> f64 {
        match self {
            ColValue::F64(x) => *x,
            ColValue::Arr(_) => panic!("expected scalar column, found array"),
        }
    }

    /// Array accessor; panics on scalars.
    pub fn arr(&self) -> &[f64] {
        match self {
            ColValue::Arr(v) => v,
            ColValue::F64(_) => panic!("expected array column, found scalar"),
        }
    }
}

/// Materialized base column for one row group, widened to `f64`.
#[derive(Clone, Debug)]
pub(crate) enum BaseColumn {
    /// One value per event.
    Scalar(Arc<Vec<f64>>),
    /// Flattened values plus per-event offsets.
    Array(Arc<Vec<f64>>, Arc<Vec<u32>>),
}

/// Resolved column identifiers: base columns index into the row-group
/// buffers, defined columns into the per-event cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ColumnId {
    Base(usize),
    Defined(usize),
}

/// Name → id map shared by the whole graph. Names are resolved once,
/// when a node or booking is added; the event loop only sees ids.
#[derive(Clone, Debug, Default)]
pub(crate) struct ColumnRegistry {
    by_name: HashMap<String, ColumnId>,
    /// Base column names in id order (for projection resolution).
    pub base_names: Vec<String>,
    /// Number of defined columns.
    pub n_defined: usize,
}

impl ColumnRegistry {
    /// The id of `name`: the defined column of that name, or a base
    /// column, registered on first use.
    pub fn resolve(&mut self, name: &str) -> ColumnId {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = ColumnId::Base(self.base_names.len());
        self.base_names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    pub fn define(&mut self, name: &str) -> ColumnId {
        let id = ColumnId::Defined(self.n_defined);
        self.n_defined += 1;
        self.by_name.insert(name.to_string(), id);
        id
    }
}

/// The view user callbacks receive: the current event's values of the
/// node's dependencies, addressed by their position in the `deps` list the
/// node was declared with — the way ROOT passes a column list to a lambda.
pub struct EventView<'a> {
    pub(crate) deps: &'a [ColumnId],
    pub(crate) base: &'a [BaseColumn],
    pub(crate) row: usize,
    pub(crate) defined: &'a [Option<ColValue>],
}

impl<'a> EventView<'a> {
    fn id(&self, dep: usize) -> ColumnId {
        *self.deps.get(dep).unwrap_or_else(|| {
            panic!(
                "dependency {dep} not declared (the node lists {})",
                self.deps.len()
            )
        })
    }

    /// Scalar value of dependency `dep` for the current event.
    pub fn f64(&self, dep: usize) -> f64 {
        match self.id(dep) {
            ColumnId::Base(i) => match &self.base[i] {
                BaseColumn::Scalar(v) => v[self.row],
                BaseColumn::Array(..) => panic!("dependency {dep} is an array; use arr()"),
            },
            ColumnId::Defined(i) => self.defined[i].as_ref().expect("defined upstream").f64(),
        }
    }

    /// Array contents of dependency `dep` for the current event
    /// (zero-copy for base columns).
    pub fn arr(&self, dep: usize) -> &'a [f64] {
        match self.id(dep) {
            ColumnId::Base(i) => match &self.base[i] {
                BaseColumn::Array(v, off) => &v[off[self.row] as usize..off[self.row + 1] as usize],
                BaseColumn::Scalar(_) => panic!("dependency {dep} is a scalar; use f64()"),
            },
            ColumnId::Defined(i) => self.defined[i].as_ref().expect("defined upstream").arr(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assigns_stable_ids() {
        let mut r = ColumnRegistry::default();
        let a = r.resolve("Jet_pt");
        let b = r.resolve("Jet_pt");
        assert_eq!(a, b);
        let c = r.resolve("MET_pt");
        assert_ne!(a, c);
        let d = r.define("mass");
        assert_eq!(d, ColumnId::Defined(0));
        assert_eq!(r.resolve("mass"), d);
        assert_eq!(
            r.base_names,
            vec!["Jet_pt".to_string(), "MET_pt".to_string()]
        );
    }

    #[test]
    fn view_reads_base_and_defined_by_position() {
        let base = vec![
            BaseColumn::Scalar(Arc::new(vec![1.0, 2.0])),
            BaseColumn::Array(Arc::new(vec![10.0, 20.0, 30.0]), Arc::new(vec![0, 2, 3])),
        ];
        let defined = vec![Some(ColValue::F64(42.0))];
        // The node's list order, not the registry's, decides positions.
        let deps = [ColumnId::Defined(0), ColumnId::Base(1), ColumnId::Base(0)];
        let v = EventView {
            deps: &deps,
            base: &base,
            row: 0,
            defined: &defined,
        };
        assert_eq!(v.f64(2), 1.0);
        assert_eq!(v.arr(1), &[10.0, 20.0]);
        assert_eq!(v.f64(0), 42.0);
        let v1 = EventView { row: 1, ..v };
        assert_eq!(v1.f64(2), 2.0);
        assert_eq!(v1.arr(1), &[30.0]);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_dependency_panics() {
        let deps = [ColumnId::Base(0)];
        let v = EventView {
            deps: &deps,
            base: &[],
            row: 0,
            defined: &[],
        };
        v.f64(1);
    }
}
