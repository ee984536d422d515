//! Dense categorical datasets.
//!
//! A [`Dataset`] is an `n_items × n_attrs` row-major matrix of [`ValueId`]s
//! plus a [`Schema`] and an optional ground-truth label per item. Rows are
//! exposed as `&[ValueId]` slices so the assignment loops index a flat buffer
//! (the perf guide's "slice before the loop" advice). The schema is shared:
//! cloning a dataset, or fitting a model on it, copies a pointer to it.

use crate::dictionary::Schema;
use crate::types::{AttrId, ItemId, ValueId};
use std::sync::Arc;

/// Error raised by [`DatasetBuilder`] when a row has the wrong arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityError {
    /// Number of attributes the schema declares.
    pub expected: usize,
    /// Number of values in the offending row.
    pub got: usize,
}

impl std::fmt::Display for ArityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "row has {} values but schema has {} attributes",
            self.got, self.expected
        )
    }
}

impl std::error::Error for ArityError {}

/// A dense, immutable categorical dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    schema: Arc<Schema>,
    n_items: usize,
    n_attrs: usize,
    /// Row-major `n_items * n_attrs` value matrix.
    values: Vec<ValueId>,
    /// Optional ground-truth class per item (for external evaluation only —
    /// never consulted by the clustering algorithms).
    labels: Option<Vec<u32>>,
}

impl Dataset {
    /// Assembles a dataset from parts; `schema` is a [`Schema`] or one
    /// already shared (`Arc<Schema>`). Panics if `values.len()` is not
    /// `n_items * schema.n_attrs()` or labels have the wrong length.
    pub fn from_parts(
        schema: impl Into<Arc<Schema>>,
        values: Vec<ValueId>,
        labels: Option<Vec<u32>>,
    ) -> Self {
        let schema = schema.into();
        let n_attrs = schema.n_attrs();
        assert!(n_attrs > 0, "dataset must have at least one attribute");
        assert_eq!(
            values.len() % n_attrs,
            0,
            "value buffer length {} is not a multiple of n_attrs {}",
            values.len(),
            n_attrs
        );
        let n_items = values.len() / n_attrs;
        if let Some(l) = &labels {
            assert_eq!(l.len(), n_items, "labels length must equal n_items");
        }
        Self {
            schema,
            n_items,
            n_attrs,
            values,
            labels,
        }
    }

    /// Number of items (rows).
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of attributes (columns).
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// The schema (attribute names and dictionaries).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema as the shared allocation, for a model or another dataset
    /// over the same encoding to hold without copying it.
    pub fn shared_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Row `i` as a value slice of length [`Self::n_attrs`].
    #[inline]
    pub fn row(&self, i: usize) -> &[ValueId] {
        let start = i * self.n_attrs;
        &self.values[start..start + self.n_attrs]
    }

    /// Row addressed by [`ItemId`].
    #[inline]
    pub fn item(&self, id: ItemId) -> &[ValueId] {
        self.row(id.idx())
    }

    /// Single cell.
    #[inline]
    pub fn value(&self, item: ItemId, attr: AttrId) -> ValueId {
        self.values[item.idx() * self.n_attrs + attr.idx()]
    }

    /// Ground-truth labels, if attached.
    pub fn labels(&self) -> Option<&[u32]> {
        self.labels.as_deref()
    }

    /// Iterates all rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[ValueId]> {
        self.values.chunks_exact(self.n_attrs)
    }

    /// Number of *present* feature values in row `i` (cells that are neither
    /// [`crate::NOT_PRESENT`] nor the schema's registered absent value).
    pub fn present_count(&self, i: usize) -> usize {
        self.row(i)
            .iter()
            .enumerate()
            .filter(|&(a, &v)| !self.schema.is_absent(AttrId(a as u32), v))
            .count()
    }

    /// Decodes row `i` back to strings (absent cells render as `"∅"`).
    pub fn decode_row(&self, i: usize) -> Vec<String> {
        self.row(i)
            .iter()
            .enumerate()
            .map(|(a, &v)| {
                self.schema
                    .dictionary(AttrId(a as u32))
                    .name(v)
                    .unwrap_or("∅")
                    .to_owned()
            })
            .collect()
    }

    /// Returns the number of distinct ground-truth classes (0 if unlabelled).
    pub fn n_classes(&self) -> usize {
        self.labels
            .as_ref()
            .map(|l| l.iter().copied().max().map_or(0, |m| m as usize + 1))
            .unwrap_or(0)
    }
}

/// Incremental [`Dataset`] construction with on-the-fly interning.
#[derive(Debug)]
pub struct DatasetBuilder {
    schema: Schema,
    values: Vec<ValueId>,
    labels: Vec<u32>,
    any_label: bool,
}

impl DatasetBuilder {
    /// Starts a builder with named attributes.
    pub fn new(attr_names: Vec<String>) -> Self {
        Self {
            schema: Schema::new(attr_names),
            values: Vec::new(),
            labels: Vec::new(),
            any_label: false,
        }
    }

    /// Starts a builder with `n` anonymous attributes.
    pub fn anonymous(n: usize) -> Self {
        Self {
            schema: Schema::anonymous(n),
            values: Vec::new(),
            labels: Vec::new(),
            any_label: false,
        }
    }

    /// Mutable schema access (e.g. to register absent values).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        if self.schema.n_attrs() == 0 {
            0
        } else {
            self.values.len() / self.schema.n_attrs()
        }
    }

    /// Whether no row has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a row of raw string values, interning each one.
    pub fn push_str_row(&mut self, row: &[&str], label: Option<u32>) -> Result<ItemId, ArityError> {
        if row.len() != self.schema.n_attrs() {
            return Err(ArityError {
                expected: self.schema.n_attrs(),
                got: row.len(),
            });
        }
        let id = ItemId::from(self.len());
        for (a, s) in row.iter().enumerate() {
            let v = self.schema.dictionary_mut(AttrId(a as u32)).intern(s);
            self.values.push(v);
        }
        self.push_label(label);
        Ok(id)
    }

    /// Appends a row of pre-encoded values ([`crate::NOT_PRESENT`] allowed).
    pub fn push_encoded_row(
        &mut self,
        row: &[ValueId],
        label: Option<u32>,
    ) -> Result<ItemId, ArityError> {
        if row.len() != self.schema.n_attrs() {
            return Err(ArityError {
                expected: self.schema.n_attrs(),
                got: row.len(),
            });
        }
        let id = ItemId::from(self.len());
        self.values.extend_from_slice(row);
        self.push_label(label);
        Ok(id)
    }

    fn push_label(&mut self, label: Option<u32>) {
        match label {
            Some(l) => {
                self.any_label = true;
                self.labels.push(l);
            }
            // Unlabelled rows in a partially-labelled stream get class 0;
            // mixing is unusual but should not corrupt row alignment.
            None => self.labels.push(0),
        }
    }

    /// Finalises into an immutable [`Dataset`].
    pub fn finish(self) -> Dataset {
        let labels = if self.any_label {
            Some(self.labels)
        } else {
            None
        };
        Dataset::from_parts(self.schema, self.values, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NOT_PRESENT;

    fn small() -> Dataset {
        let mut b = DatasetBuilder::new(vec!["c".into(), "s".into()]);
        b.push_str_row(&["red", "square"], Some(0)).unwrap();
        b.push_str_row(&["red", "circle"], Some(0)).unwrap();
        b.push_str_row(&["blue", "circle"], Some(1)).unwrap();
        b.finish()
    }

    #[test]
    fn dimensions_and_rows() {
        let ds = small();
        assert_eq!(ds.n_items(), 3);
        assert_eq!(ds.n_attrs(), 2);
        assert_eq!(ds.row(0).len(), 2);
        assert_eq!(ds.rows().count(), 3);
    }

    #[test]
    fn interning_shares_codes_within_attribute() {
        let ds = small();
        assert_eq!(ds.row(0)[0], ds.row(1)[0]); // both "red"
        assert_ne!(ds.row(0)[0], ds.row(2)[0]); // red vs blue
        assert_eq!(ds.row(1)[1], ds.row(2)[1]); // both "circle"
    }

    #[test]
    fn codes_are_per_attribute_namespaces() {
        let mut b = DatasetBuilder::anonymous(2);
        b.push_str_row(&["x", "x"], None).unwrap();
        let ds = b.finish();
        // Same string in different columns gets independent (here equal-valued)
        // ids; equality across columns is meaningless and never compared.
        assert_eq!(ds.row(0)[0], ValueId(0));
        assert_eq!(ds.row(0)[1], ValueId(0));
    }

    #[test]
    fn labels_round_trip() {
        let ds = small();
        assert_eq!(ds.labels(), Some(&[0, 0, 1][..]));
        assert_eq!(ds.n_classes(), 2);
    }

    #[test]
    fn unlabelled_dataset_has_no_labels() {
        let mut b = DatasetBuilder::anonymous(1);
        b.push_str_row(&["v"], None).unwrap();
        let ds = b.finish();
        assert_eq!(ds.labels(), None);
        assert_eq!(ds.n_classes(), 0);
    }

    #[test]
    fn arity_error() {
        let mut b = DatasetBuilder::anonymous(2);
        let err = b.push_str_row(&["only-one"], None).unwrap_err();
        assert_eq!(
            err,
            ArityError {
                expected: 2,
                got: 1
            }
        );
        assert!(err.to_string().contains("2 attributes"));
    }

    #[test]
    fn decode_row_recovers_strings() {
        let ds = small();
        assert_eq!(
            ds.decode_row(2),
            vec!["blue".to_owned(), "circle".to_owned()]
        );
    }

    #[test]
    fn decode_renders_not_present() {
        let mut b = DatasetBuilder::anonymous(2);
        let v = b.schema_mut().dictionary_mut(AttrId(0)).intern("x");
        b.push_encoded_row(&[v, NOT_PRESENT], None).unwrap();
        let ds = b.finish();
        assert_eq!(ds.decode_row(0), vec!["x".to_owned(), "∅".to_owned()]);
    }

    #[test]
    fn present_count_skips_absent() {
        let mut b = DatasetBuilder::anonymous(3);
        let x = b.schema_mut().dictionary_mut(AttrId(0)).intern("x");
        let no = b.schema_mut().dictionary_mut(AttrId(1)).intern("w-0");
        b.schema_mut().set_absent_value(AttrId(1), no);
        let y = b.schema_mut().dictionary_mut(AttrId(2)).intern("y");
        b.push_encoded_row(&[x, no, y], None).unwrap();
        b.push_encoded_row(&[x, no, NOT_PRESENT], None).unwrap();
        let ds = b.finish();
        assert_eq!(ds.present_count(0), 2);
        assert_eq!(ds.present_count(1), 1);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn from_parts_validates_buffer_length() {
        let schema = Schema::anonymous(3);
        let _ = Dataset::from_parts(schema, vec![ValueId(0); 4], None);
    }

    #[test]
    fn value_accessor_matches_row() {
        let ds = small();
        assert_eq!(ds.value(ItemId(1), AttrId(1)), ds.row(1)[1]);
    }
}
