//! Schema tree: logical nested types over physical scalar leaves.

use nested_value::Path;

use crate::error::ColumnarError;

/// Physical storage type of a leaf column.
///
/// The logical value model only has `Int`/`Float`/`Bool`, but the physical
/// precision matters for storage size and therefore for scan pricing: the
/// paper's data set stores most measurements as 4-byte floats while BigQuery
/// *prices* them as 8-byte doubles (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhysicalType {
    /// 1-bit boolean (bit-packed on disk).
    Bool,
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// 32-bit IEEE float (exposed to queries as f64).
    Float32,
    /// 64-bit IEEE float.
    Float64,
}

impl PhysicalType {
    /// Physical width in bytes (Bool counts as 1 for uncompressed size;
    /// bit-packing is part of compression).
    pub fn width(self) -> usize {
        match self {
            PhysicalType::Bool => 1,
            PhysicalType::Int32 | PhysicalType::Float32 => 4,
            PhysicalType::Int64 | PhysicalType::Float64 => 8,
        }
    }

    /// Width used by BigQuery-style logical pricing: every number is
    /// treated as its 8-byte logical type, booleans as 1 byte.
    pub fn logical_width(self) -> usize {
        match self {
            PhysicalType::Bool => 1,
            _ => 8,
        }
    }
}

/// A logical data type in the schema tree.
#[derive(Clone, Debug, PartialEq)]
pub enum DataType {
    /// Scalar leaf with a physical representation.
    Scalar(PhysicalType),
    /// Struct with named fields.
    Struct(Vec<Field>),
    /// Variable-length list. At most one list level per root-to-leaf path
    /// (all HEP schemas satisfy this; enforced by schema validation).
    List(Box<DataType>),
}

impl DataType {
    /// Shorthand for a `Float32` scalar (the dominant HEP leaf type).
    pub fn f32() -> DataType {
        DataType::Scalar(PhysicalType::Float32)
    }
    /// Shorthand for a `Float64` scalar.
    pub fn f64() -> DataType {
        DataType::Scalar(PhysicalType::Float64)
    }
    /// Shorthand for an `Int32` scalar.
    pub fn i32() -> DataType {
        DataType::Scalar(PhysicalType::Int32)
    }
    /// Shorthand for an `Int64` scalar.
    pub fn i64() -> DataType {
        DataType::Scalar(PhysicalType::Int64)
    }
    /// Shorthand for a `Bool` scalar.
    pub fn bool() -> DataType {
        DataType::Scalar(PhysicalType::Bool)
    }
    /// Shorthand for a list of structs — the canonical particle collection.
    pub fn particle_list(fields: Vec<Field>) -> DataType {
        DataType::List(Box::new(DataType::Struct(fields)))
    }
}

/// A named schema node.
///
/// The name is an interned `Arc<str>` so that row materialization can tag
/// struct fields with a pointer clone instead of allocating a fresh string
/// per row (see [`crate::rowgroup::GroupReader`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// Field name, shared by every row materialized from this schema.
    pub name: std::sync::Arc<str>,
    /// Field type.
    pub dtype: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: &str, dtype: DataType) -> Field {
        Field {
            name: std::sync::Arc::from(name),
            dtype,
        }
    }
}

/// Description of one leaf column: its path, physical type, and whether it
/// sits under a repeated (list) ancestor.
#[derive(Clone, Debug, PartialEq)]
pub struct LeafInfo {
    /// Dotted path from the root, e.g. `Jet.pt`.
    pub path: Path,
    /// Physical storage type.
    pub ptype: PhysicalType,
    /// True if some ancestor is a list (the column needs offsets).
    pub repeated: bool,
}

/// A table schema: an implicit top-level struct.
#[derive(Clone, Debug, PartialEq)]
pub struct Schema {
    fields: Vec<Field>,
    leaves: Vec<LeafInfo>,
}

impl Schema {
    /// Builds and validates a schema.
    pub fn new(fields: Vec<Field>) -> Result<Schema, ColumnarError> {
        let mut leaves = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            if !seen.insert(f.name.clone()) {
                return Err(ColumnarError::UnsupportedSchema(format!(
                    "duplicate top-level field {}",
                    f.name
                )));
            }
            collect_leaves(&Path::root(&f.name), &f.dtype, false, &mut leaves)?;
        }
        Ok(Schema { fields, leaves })
    }

    /// Top-level fields.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Looks up a top-level field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name.as_ref() == name)
    }

    /// All leaf columns in depth-first schema order.
    pub fn leaves(&self) -> &[LeafInfo] {
        &self.leaves
    }

    /// Looks up a leaf by path.
    pub fn leaf(&self, path: &Path) -> Option<&LeafInfo> {
        self.leaves.iter().find(|l| &l.path == path)
    }

    /// Resolves the data type at an arbitrary (possibly non-leaf) path.
    pub fn type_at(&self, path: &Path) -> Option<&DataType> {
        let mut fields = &self.fields;
        let mut current: Option<&DataType> = None;
        for seg in path.segments() {
            let f = fields.iter().find(|f| f.name.as_ref() == seg.as_str())?;
            current = Some(&f.dtype);
            // Descend through lists transparently (Parquet-style paths).
            let mut dt = &f.dtype;
            loop {
                match dt {
                    DataType::List(inner) => dt = inner,
                    DataType::Struct(inner) => {
                        fields = inner;
                        break;
                    }
                    DataType::Scalar(_) => {
                        fields = &EMPTY_FIELDS;
                        break;
                    }
                }
            }
        }
        current
    }

    /// Total number of leaf columns (the paper's "65 attributes").
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// All leaves under the given path prefix (the path itself if a leaf).
    pub fn leaves_under(&self, prefix: &Path) -> Vec<&LeafInfo> {
        self.leaves
            .iter()
            .filter(|l| l.path.starts_with(prefix))
            .collect()
    }
}

static EMPTY_FIELDS: Vec<Field> = Vec::new();

fn collect_leaves(
    path: &Path,
    dtype: &DataType,
    in_list: bool,
    out: &mut Vec<LeafInfo>,
) -> Result<(), ColumnarError> {
    match dtype {
        DataType::Scalar(pt) => {
            out.push(LeafInfo {
                path: path.clone(),
                ptype: *pt,
                repeated: in_list,
            });
            Ok(())
        }
        DataType::Struct(fields) => {
            let mut seen = std::collections::HashSet::new();
            for f in fields {
                if !seen.insert(&f.name) {
                    return Err(ColumnarError::UnsupportedSchema(format!(
                        "duplicate field {} under {}",
                        f.name, path
                    )));
                }
                collect_leaves(&path.child(&f.name), &f.dtype, in_list, out)?;
            }
            Ok(())
        }
        DataType::List(inner) => {
            if in_list {
                return Err(ColumnarError::UnsupportedSchema(format!(
                    "nested lists at {path} are not supported (HEP data has a single repetition level)"
                )));
            }
            if matches!(**inner, DataType::List(_)) {
                return Err(ColumnarError::UnsupportedSchema(format!(
                    "list of lists at {path}"
                )));
            }
            let before = out.len();
            collect_leaves(path, inner, true, out)?;
            if out.len() == before {
                // A list's offsets live in its leaves: without one, the
                // element counts would be lost.
                return Err(ColumnarError::UnsupportedSchema(format!(
                    "list at {path} has no leaf columns"
                )));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_schema() -> Schema {
        Schema::new(vec![
            Field::new("event", DataType::i64()),
            Field::new(
                "MET",
                DataType::Struct(vec![
                    Field::new("pt", DataType::f32()),
                    Field::new("phi", DataType::f32()),
                ]),
            ),
            Field::new(
                "Jet",
                DataType::particle_list(vec![
                    Field::new("pt", DataType::f32()),
                    Field::new("eta", DataType::f32()),
                    Field::new("puId", DataType::bool()),
                ]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn leaf_enumeration() {
        let s = toy_schema();
        let paths: Vec<String> = s.leaves().iter().map(|l| l.path.to_string()).collect();
        assert_eq!(
            paths,
            vec!["event", "MET.pt", "MET.phi", "Jet.pt", "Jet.eta", "Jet.puId"]
        );
        assert!(!s.leaf(&Path::parse("MET.pt")).unwrap().repeated);
        assert!(s.leaf(&Path::parse("Jet.pt")).unwrap().repeated);
        assert_eq!(s.n_leaves(), 6);
    }

    #[test]
    fn leaves_under_prefix() {
        let s = toy_schema();
        let under: Vec<String> = s
            .leaves_under(&Path::root("Jet"))
            .iter()
            .map(|l| l.path.to_string())
            .collect();
        assert_eq!(under, vec!["Jet.pt", "Jet.eta", "Jet.puId"]);
        // A prefix must match whole segments.
        assert!(s.leaves_under(&Path::root("Je")).is_empty());
    }

    #[test]
    fn type_at_descends_lists() {
        let s = toy_schema();
        assert_eq!(s.type_at(&Path::parse("Jet.pt")), Some(&DataType::f32()));
        assert!(matches!(
            s.type_at(&Path::root("Jet")),
            Some(DataType::List(_))
        ));
        assert_eq!(s.type_at(&Path::parse("Jet.nope")), None);
    }

    #[test]
    fn rejects_nested_lists() {
        let err = Schema::new(vec![Field::new(
            "a",
            DataType::List(Box::new(DataType::particle_list(vec![Field::new(
                "x",
                DataType::f32(),
            )]))),
        )]);
        assert!(matches!(err, Err(ColumnarError::UnsupportedSchema(_))));
    }

    #[test]
    fn rejects_lists_without_leaves() {
        let err = Schema::new(vec![Field::new("a", DataType::particle_list(vec![]))]);
        assert!(matches!(err, Err(ColumnarError::UnsupportedSchema(_))));
    }

    #[test]
    fn rejects_duplicate_fields() {
        let err = Schema::new(vec![
            Field::new("a", DataType::i64()),
            Field::new("a", DataType::f64()),
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn physical_widths() {
        assert_eq!(PhysicalType::Float32.width(), 4);
        assert_eq!(PhysicalType::Float32.logical_width(), 8);
        assert_eq!(PhysicalType::Bool.width(), 1);
        assert_eq!(PhysicalType::Int64.logical_width(), 8);
    }
}
