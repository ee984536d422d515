//! Per-attribute string interning.
//!
//! Categorical comparisons in the hot clustering loops must be integer
//! comparisons, so every attribute owns a [`Dictionary`] mapping category
//! strings (e.g. `"blue"`, `"zoo-1"`) to dense [`ValueId`]s. A [`Schema`]
//! bundles one dictionary per attribute together with attribute names.

use crate::types::{AttrId, ValueId, NOT_PRESENT};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Interner for one attribute's category values.
///
/// Values are assigned dense ids in first-seen order, so a dictionary built
/// from the same value stream is always identical — important for the
/// workspace-wide determinism policy (docs/ARCHITECTURE.md § Determinism).
///
/// Each value is stored once. The texts of all values lie back to back in
/// one arena, in id order, with one end offset per value; an
/// open-addressing table maps a hash of a value's text to its id. Ids come
/// from the order of first sight and never from the hash. The hash is the
/// standard library's randomly keyed one, because values come from input
/// files and requests, and fixed keys would let crafted values collide.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    /// Every value's text, in id order.
    text: String,
    /// Where each value's text ends in `text`; value `i` starts where value
    /// `i - 1` ends.
    ends: Vec<u32>,
    /// Linear-probing table of `id + 1`, `0` marking an empty slot. Its
    /// length is zero or a power of two, and at most half of it is full.
    slots: Vec<u32>,
    /// The keys of the table's hash.
    hasher: RandomState,
}

/// Smallest table a dictionary allocates.
const MIN_SLOTS: usize = 16;

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its existing or freshly assigned id.
    pub fn intern(&mut self, name: &str) -> ValueId {
        let slot = match self.find(name) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        // `u32::MAX` is `NOT_PRESENT`, never a dictionary code.
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("dictionary overflows u32");
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("dictionary text overflows u32");
        self.ends.push(end);
        if self.ends.len() * 2 > self.slots.len() {
            self.rehash((self.slots.len() * 2).max(MIN_SLOTS));
        } else {
            self.slots[slot] = id + 1;
        }
        ValueId(id)
    }

    /// Looks up a value id without interning.
    pub fn get(&self, name: &str) -> Option<ValueId> {
        self.find(name).ok()
    }

    /// Returns the string for `id`, or `None` for out-of-range or
    /// [`NOT_PRESENT`] ids.
    pub fn name(&self, id: ValueId) -> Option<&str> {
        (id.idx() < self.len()).then(|| self.text_of(id.idx()))
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> {
        (0..self.len()).map(|i| (ValueId(i as u32), self.text_of(i)))
    }

    /// The text of value `i < len`.
    #[inline]
    fn text_of(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The id of `name` (`Ok`), or the empty slot where probing for it
    /// ended (`Err`; meaningless while the table is empty).
    fn find(&self, name: &str) -> Result<ValueId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                stored if self.text_of(stored as usize - 1) == name => {
                    return Ok(ValueId(stored - 1))
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the table with `n_slots` slots (a power of two, more than
    /// twice the number of values).
    fn rehash(&mut self, n_slots: usize) {
        let mut slots = vec![0u32; n_slots];
        let mask = n_slots - 1;
        for i in 0..self.len() {
            let mut slot = self.hasher.hash_one(self.text_of(i)) as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = i as u32 + 1;
        }
        self.slots = slots;
    }

    /// Makes room for `values` more values holding `bytes` more bytes of
    /// text, so interning them neither reallocates nor rehashes.
    fn reserve(&mut self, values: usize, bytes: usize) {
        self.text.reserve(bytes);
        self.ends.reserve(values);
        let n_slots = ((self.len() + values) * 2 + 1)
            .next_power_of_two()
            .max(MIN_SLOTS);
        if n_slots > self.slots.len() {
            self.rehash(n_slots);
        }
    }
}

/// Attribute names plus one [`Dictionary`] per attribute.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    attr_names: Vec<String>,
    dictionaries: Vec<Dictionary>,
    /// Per-attribute value that encodes "feature absent", if any.
    absent_values: Vec<Option<ValueId>>,
}

impl Schema {
    /// Creates a schema with the given attribute names and empty dictionaries.
    pub fn new(attr_names: Vec<String>) -> Self {
        let n = attr_names.len();
        Self {
            attr_names,
            dictionaries: vec![Dictionary::new(); n],
            absent_values: vec![None; n],
        }
    }

    /// Creates an anonymous schema with `n` attributes named `a0..a{n-1}`.
    pub fn anonymous(n: usize) -> Self {
        Self::new((0..n).map(|i| format!("a{i}")).collect())
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// Name of attribute `attr`.
    pub fn attr_name(&self, attr: AttrId) -> &str {
        &self.attr_names[attr.idx()]
    }

    /// Immutable access to the dictionary of attribute `attr`.
    pub fn dictionary(&self, attr: AttrId) -> &Dictionary {
        &self.dictionaries[attr.idx()]
    }

    /// Mutable access to the dictionary of attribute `attr`.
    pub fn dictionary_mut(&mut self, attr: AttrId) -> &mut Dictionary {
        &mut self.dictionaries[attr.idx()]
    }

    /// Marks `value` as the "absent" encoding for attribute `attr`.
    ///
    /// Items holding this value (or [`NOT_PRESENT`]) in that column are
    /// skipped by [`crate::PresentElements`], mirroring the paper's filtering
    /// of `No` word-presence indicators before MinHash.
    pub fn set_absent_value(&mut self, attr: AttrId, value: ValueId) {
        self.absent_values[attr.idx()] = Some(value);
    }

    /// The "absent" value for attribute `attr`, if one was registered.
    pub fn absent_value(&self, attr: AttrId) -> Option<ValueId> {
        self.absent_values[attr.idx()]
    }

    /// Whether `value` in column `attr` means "feature absent".
    #[inline]
    pub fn is_absent(&self, attr: AttrId, value: ValueId) -> bool {
        value == NOT_PRESENT || self.absent_values[attr.idx()] == Some(value)
    }
}

// A schema serializes as one entry per attribute carrying the name, the
// dictionary's values in id order, and the registered absent value (if any):
// `{"attrs": [{"name": "a0", "values": ["x", "y"], "absent": null}, …]}`.
// Interning the value list back in order reproduces the exact same dense
// ids, so encoded datasets and saved models stay aligned across processes.
impl Serialize for Schema {
    fn to_value(&self) -> Value {
        let attrs = (0..self.n_attrs())
            .map(|a| {
                let attr = AttrId(a as u32);
                let values = self
                    .dictionary(attr)
                    .iter()
                    .map(|(_, name)| Value::String(name.to_owned()))
                    .collect();
                Value::Object(vec![
                    (
                        "name".to_owned(),
                        Value::String(self.attr_name(attr).to_owned()),
                    ),
                    ("values".to_owned(), Value::Array(values)),
                    (
                        "absent".to_owned(),
                        Serialize::to_value(&self.absent_value(attr)),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![("attrs".to_owned(), Value::Array(attrs))])
    }
}

impl Deserialize for Schema {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let attrs = v
            .get("attrs")
            .and_then(Value::as_array)
            .ok_or_else(|| SerdeError::expected("object with `attrs` array", "Schema"))?;
        let mut names = Vec::with_capacity(attrs.len());
        for entry in attrs {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| SerdeError::expected("attribute `name` string", "Schema"))?;
            names.push(name.to_owned());
        }
        let mut schema = Schema::new(names);
        for (a, entry) in attrs.iter().enumerate() {
            let attr = AttrId(a as u32);
            let values = entry
                .get("values")
                .and_then(Value::as_array)
                .ok_or_else(|| SerdeError::expected("attribute `values` array", "Schema"))?;
            let bytes = values.iter().filter_map(Value::as_str).map(str::len).sum();
            schema.dictionary_mut(attr).reserve(values.len(), bytes);
            for (i, value) in values.iter().enumerate() {
                let name = value
                    .as_str()
                    .ok_or_else(|| SerdeError::expected("string value", "Schema"))?;
                // Interning dedups, so a duplicated entry would silently
                // shift every later id away from the serialized ordering —
                // reject the artifact instead.
                let id = schema.dictionary_mut(attr).intern(name);
                if id.idx() != i {
                    return Err(SerdeError(format!(
                        "duplicate value `{name}` in the dictionary of attribute {a}"
                    )));
                }
            }
            let absent: Option<ValueId> = match entry.get("absent") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            };
            if let Some(value) = absent {
                if value.idx() >= schema.dictionary(attr).len() && value != NOT_PRESENT {
                    return Err(SerdeError(format!(
                        "absent value {value} out of range for attribute {a}"
                    )));
                }
                schema.set_absent_value(attr, value);
            }
        }
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("blue");
        let b = d.intern("green");
        let a2 = d.intern("blue");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn ids_are_dense_first_seen_order() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("x"), ValueId(0));
        assert_eq!(d.intern("y"), ValueId(1));
        assert_eq!(d.intern("z"), ValueId(2));
        assert_eq!(d.name(ValueId(1)), Some("y"));
    }

    #[test]
    fn name_of_not_present_is_none() {
        let mut d = Dictionary::new();
        d.intern("x");
        assert_eq!(d.name(NOT_PRESENT), None);
        assert_eq!(d.name(ValueId(99)), None);
    }

    #[test]
    fn get_does_not_intern() {
        let mut d = Dictionary::new();
        assert_eq!(d.get("a"), None);
        d.intern("a");
        assert_eq!(d.get("a"), Some(ValueId(0)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Dictionary::new();
        d.intern("p");
        d.intern("q");
        let v: Vec<_> = d.iter().map(|(i, n)| (i.0, n.to_owned())).collect();
        assert_eq!(v, vec![(0, "p".to_owned()), (1, "q".to_owned())]);
    }

    #[test]
    fn schema_absent_values() {
        let mut s = Schema::anonymous(2);
        let v = s.dictionary_mut(AttrId(0)).intern("word-0");
        s.set_absent_value(AttrId(0), v);
        assert!(s.is_absent(AttrId(0), v));
        assert!(!s.is_absent(AttrId(1), v));
        assert!(s.is_absent(AttrId(1), NOT_PRESENT));
        assert_eq!(s.absent_value(AttrId(0)), Some(v));
        assert_eq!(s.absent_value(AttrId(1)), None);
    }

    #[test]
    fn anonymous_schema_names() {
        let s = Schema::anonymous(3);
        assert_eq!(s.n_attrs(), 3);
        assert_eq!(s.attr_name(AttrId(2)), "a2");
    }

    #[test]
    fn schema_round_trips_through_value_tree() {
        let mut s = Schema::new(vec!["colour".into(), "word-presence".into()]);
        s.dictionary_mut(AttrId(0)).intern("red");
        s.dictionary_mut(AttrId(0)).intern("blue");
        let no = s.dictionary_mut(AttrId(1)).intern("absent");
        s.dictionary_mut(AttrId(1)).intern("present");
        s.set_absent_value(AttrId(1), no);

        let back = Schema::from_value(&s.to_value()).unwrap();
        assert_eq!(back.n_attrs(), 2);
        assert_eq!(back.attr_name(AttrId(0)), "colour");
        assert_eq!(back.dictionary(AttrId(0)).get("blue"), Some(ValueId(1)));
        assert_eq!(back.absent_value(AttrId(1)), Some(no));
        assert!(back.is_absent(AttrId(1), no));
        // Round-trip is a fixpoint at the value-tree level.
        assert_eq!(back.to_value(), s.to_value());
    }

    #[test]
    fn schema_deserialize_rejects_duplicate_values() {
        let dup = Value::Object(vec![(
            "attrs".to_owned(),
            Value::Array(vec![Value::Object(vec![
                ("name".to_owned(), Value::String("a0".to_owned())),
                (
                    "values".to_owned(),
                    Value::Array(vec![
                        Value::String("red".to_owned()),
                        Value::String("blue".to_owned()),
                        Value::String("red".to_owned()),
                    ]),
                ),
                ("absent".to_owned(), Value::Null),
            ])]),
        )]);
        let err = Schema::from_value(&dup).unwrap_err();
        assert!(err.0.contains("duplicate"), "{err}");
    }

    #[test]
    fn schema_deserialize_rejects_out_of_range_absent() {
        let mut s = Schema::anonymous(1);
        s.dictionary_mut(AttrId(0)).intern("x");
        let mut v = s.to_value();
        if let Value::Object(entries) = &mut v {
            if let Value::Array(attrs) = &mut entries[0].1 {
                if let Value::Object(fields) = &mut attrs[0] {
                    fields[2].1 = Serialize::to_value(&7u32); // absent id 7, domain size 1
                }
            }
        }
        assert!(Schema::from_value(&v).is_err());
    }

    /// A value for stream code `n`: the empty string, `v{n}` and its
    /// `v{n}0` prefix partner, multi-byte UTF-8, NUL-padded and
    /// longer-than-a-word texts.
    fn value_text(n: u32) -> String {
        match n % 7 {
            0 => String::new(),
            1 => format!("v{}", n / 7),
            2 => format!("v{}0", n / 7),
            3 => format!("é{}ß日本", n / 7),
            4 => format!("🦀{}", n / 7),
            5 => format!("v{}\0", n / 7),
            _ => format!("a-value-longer-than-one-word-{:>9}", n / 7),
        }
    }

    /// The interner this module replaced: a map plus a name list.
    #[derive(Default)]
    struct Reference {
        by_name: std::collections::HashMap<String, ValueId>,
        names: Vec<String>,
    }

    impl Reference {
        fn intern(&mut self, name: &str) -> ValueId {
            if let Some(&id) = self.by_name.get(name) {
                return id;
            }
            let id = ValueId(self.names.len() as u32);
            self.by_name.insert(name.to_owned(), id);
            self.names.push(name.to_owned());
            id
        }

        fn schema_json(attrs: &[&Reference]) -> String {
            let attrs = attrs
                .iter()
                .enumerate()
                .map(|(a, r)| {
                    let values = r.names.iter().map(|n| Value::String(n.clone())).collect();
                    Value::Object(vec![
                        ("name".to_owned(), Value::String(format!("a{a}"))),
                        ("values".to_owned(), Value::Array(values)),
                        ("absent".to_owned(), Value::Null),
                    ])
                })
                .collect();
            let tree = Value::Object(vec![("attrs".to_owned(), Value::Array(attrs))]);
            serde_json::to_string(&Tree(tree)).unwrap()
        }
    }

    /// Serializes as the value tree it holds.
    struct Tree(Value);

    impl Serialize for Tree {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Up to 600 draws from 420 codes: repeats, and up to ~420
        /// distinct values, which grows the table from 16 to 1,024 slots.
        #[test]
        fn interned_dictionary_matches_a_map_and_list(
            first in prop::collection::vec(0u32..420, 0..600usize),
            second in prop::collection::vec(0u32..60, 0..80usize),
        ) {
            let mut schema = Schema::anonymous(2);
            let mut refs = [Reference::default(), Reference::default()];
            for (a, stream) in [&first, &second].into_iter().enumerate() {
                for &n in stream {
                    let text = value_text(n);
                    let got = schema.dictionary_mut(AttrId(a as u32)).intern(&text);
                    prop_assert_eq!(got, refs[a].intern(&text));
                }
            }
            for (a, r) in refs.iter().enumerate() {
                let d = schema.dictionary(AttrId(a as u32));
                prop_assert_eq!(d.len(), r.names.len());
                prop_assert_eq!(d.is_empty(), r.names.is_empty());
                let listed: Vec<(ValueId, &str)> = d.iter().collect();
                let expected: Vec<(ValueId, &str)> = r
                    .names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (ValueId(i as u32), n.as_str()))
                    .collect();
                prop_assert_eq!(listed, expected);
                for (i, n) in r.names.iter().enumerate() {
                    prop_assert_eq!(d.name(ValueId(i as u32)), Some(n.as_str()));
                }
                prop_assert_eq!(d.name(ValueId(r.names.len() as u32)), None);
                prop_assert_eq!(d.name(NOT_PRESENT), None);
                // Every code, interned or not, looks up alike.
                for n in 0..430 {
                    let text = value_text(n);
                    prop_assert_eq!(d.get(&text), r.by_name.get(&text).copied());
                }
            }
            let json = serde_json::to_string(&schema).unwrap();
            prop_assert_eq!(&json, &Reference::schema_json(&[&refs[0], &refs[1]]));
            let back: Schema = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }
}
