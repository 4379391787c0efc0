//! Records and their identifiers.

use std::fmt;

/// Dense identifier of a record within one [`Dataset`](crate::Dataset).
///
/// Ids are assigned contiguously from zero in insertion order, so they can
/// be used directly as vector indices by the graph and simulation layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u32);

impl RecordId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u32> for RecordId {
    fn from(v: u32) -> Self {
        RecordId(v)
    }
}

/// Identifier of the source table a record came from.
///
/// Single-table datasets (Restaurant) put every record in source `0`;
/// integrated datasets (Product = abt ∪ buy) use one id per origin and
/// restrict the candidate [`PairSpace`](crate::PairSpace) to cross-source
/// pairs, exactly as the paper counts `1081 * 1092` Product pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u8);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One row of a table undergoing entity resolution.
///
/// A record is schema-agnostic: `fields[i]` holds the value of the i-th
/// attribute of the owning dataset's schema. All CrowdER algorithms
/// consume records through token sets or similarity features, never
/// through typed columns, which mirrors the paper's treatment (§7.1
/// concatenates all attribute values into one token set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Dense id within the dataset.
    pub id: RecordId,
    /// Which source table the record came from.
    pub source: SourceId,
    /// Attribute values, positionally aligned with the dataset schema.
    pub fields: Vec<String>,
}

impl Record {
    /// Create a record.
    pub fn new(id: RecordId, source: SourceId, fields: Vec<String>) -> Self {
        Record { id, source, fields }
    }

    /// The value of attribute `attr`, if present.
    #[inline]
    pub fn field(&self, attr: usize) -> Option<&str> {
        self.fields.get(attr).map(String::as_str)
    }

    /// All attribute values joined with single spaces — the "whole record
    /// text" the paper tokenizes for the simjoin likelihood (§7.1).
    pub fn joined_text(&self) -> String {
        self.fields.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_id_display_and_index() {
        let id = RecordId(42);
        assert_eq!(id.to_string(), "r42");
        assert_eq!(id.index(), 42);
        assert_eq!(RecordId::from(7u32), RecordId(7));
    }

    #[test]
    fn joined_text_concatenates_fields() {
        let r = Record::new(
            RecordId(0),
            SourceId(0),
            vec!["ipad two".into(), "16gb wifi".into()],
        );
        assert_eq!(r.joined_text(), "ipad two 16gb wifi");
        assert_eq!(r.field(0), Some("ipad two"));
        assert_eq!(r.field(2), None);
    }

    #[test]
    fn record_ids_order_by_value() {
        assert!(RecordId(3) < RecordId(10));
        assert!(SourceId(0) < SourceId(1));
    }
}
