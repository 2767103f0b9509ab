//! The attribute value domain, including the null value `⊥`.
//!
//! The paper's relations range over atomic values and allow nulls in the
//! *source* relations (an extension over Rajaraman–Ullman 1996). Join
//! consistency requires shared attributes to be **equal and non-null**, so
//! `Value` needs total equality, ordering and hashing — including for
//! floating-point values, which we canonicalize at construction time.
//!
//! `Value::Str` carries an [`IStr`]: a shared string that stores its own
//! hash, so hashing is one word and unequal strings are (almost always)
//! told apart by one word compare. A [`Database`](crate::Database) keeps
//! one copy of each distinct string of its rows, so equal join values
//! share an allocation and equality accepts on the pointer. Together
//! these keep `join_consistent_with` cheap in the maximal-extension inner
//! loops without any process-global state.

use crate::error::RelationalError;
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable shared string that carries its own hash.
///
/// The hash is computed once, at construction. Equality compares the
/// hashes, then the pointers, then the bytes; hashing writes the stored
/// word, so every map keyed by a `Value` buckets strings by it. Strings
/// arrive from outside the program (wire inserts, text tables), so the
/// hash is std's SipHash, which resists crafted collisions, rather than
/// [`FxHasher`](crate::fxhash::FxHasher), whose collisions are easy to
/// construct. Its keys are fixed, so hashes — and with them every
/// hash-map iteration order — repeat from run to run. Ordering is
/// lexicographic on the text, so `Value`'s total order does not depend
/// on how a string was built or shared.
#[derive(Clone)]
pub struct IStr {
    hash: u64,
    text: Arc<str>,
}

impl IStr {
    fn new(text: &str) -> Self {
        let mut h = DefaultHasher::new();
        h.write(text.as_bytes());
        IStr {
            hash: h.finish(),
            text: Arc::from(text),
        }
    }

    /// The text.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The shared text allocation (cheap to clone).
    #[inline]
    pub fn arc(&self) -> &Arc<str> {
        &self.text
    }
}

impl PartialEq for IStr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for IStr {}

impl Hash for IStr {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Ord for IStr {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.text, &other.text) {
            Ordering::Equal
        } else {
            self.text.cmp(&other.text)
        }
    }
}

impl PartialOrd for IStr {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Deref for IStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        &self.text
    }
}

impl AsRef<str> for IStr {
    #[inline]
    fn as_ref(&self) -> &str {
        &self.text
    }
}

impl Borrow<str> for IStr {
    #[inline]
    fn borrow(&self) -> &str {
        &self.text
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.text, f)
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// An atomic attribute value.
///
/// `Null` is the paper's `⊥`. Strings carry their own hash, so hashing
/// is one word and unequal strings almost always differ on it; a
/// database shares one text allocation per distinct string among its
/// rows, tuple sets and padded output rows.
#[derive(Debug, Clone)]
pub enum Value {
    /// The null value `⊥`: missing or unknown information.
    Null,
    /// A 64-bit signed integer.
    Int(i64),
    /// A finite 64-bit float. NaN is rejected at construction; `-0.0` is
    /// canonicalized to `0.0` so `Eq`/`Hash` are consistent.
    Float(f64),
    /// A UTF-8 string with its hash.
    Str(IStr),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Builds a string value, hashing the text once.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(IStr::new(s.as_ref()))
    }

    /// Builds a float value, canonicalizing `-0.0` and rejecting NaN.
    ///
    /// # Panics
    /// Panics if `f` is NaN — NaN has no consistent equality and would break
    /// join semantics. Parse and wire paths must use
    /// [`try_float`](Self::try_float) instead, which reports the rejection
    /// as an error.
    pub fn float(f: f64) -> Self {
        assert!(!f.is_nan(), "NaN is not a valid attribute value");
        Value::Float(if f == 0.0 { 0.0 } else { f })
    }

    /// Fallible [`float`](Self::float): returns
    /// [`RelationalError::NanValue`] instead of panicking, so parse and
    /// serve-protocol paths can reject NaN without aborting the process.
    pub fn try_float(f: f64) -> Result<Self, RelationalError> {
        if f.is_nan() {
            return Err(RelationalError::NanValue);
        }
        Ok(Value::Float(if f == 0.0 { 0.0 } else { f }))
    }

    /// Is this the null value `⊥`?
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The paper's join-consistency test on a single shared attribute:
    /// both values must be equal **and** non-null (`t1[A] = t2[A] ≠ ⊥`).
    /// For strings this is a tag plus one word comparison, then a
    /// pointer compare when the two share an allocation.
    #[inline]
    pub fn join_consistent_with(&self, other: &Value) -> bool {
        !self.is_null() && !other.is_null() && self == other
    }

    /// A small integer tag used for cross-variant ordering.
    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Renders the value the way the paper prints it (`⊥` for null).
    pub fn display(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed("⊥"),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => Cow::Owned(format!("{f}")),
            Value::Str(s) => Cow::Borrowed(s.as_str()),
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            // Hash word first; shared allocations accept on the pointer.
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.tag());
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            // Floats are finite by construction, so partial_cmp never fails.
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b).expect("finite floats"),
            // Shared allocations short-circuit; otherwise lexicographic.
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

/// Shorthand for `Value::Null`, mirroring the paper's `⊥` notation.
pub const NULL: Value = Value::Null;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_is_not_join_consistent_with_anything() {
        assert!(!NULL.join_consistent_with(&NULL));
        assert!(!NULL.join_consistent_with(&Value::Int(1)));
        assert!(!Value::Int(1).join_consistent_with(&NULL));
    }

    #[test]
    fn equal_non_null_values_are_join_consistent() {
        assert!(Value::Int(3).join_consistent_with(&Value::Int(3)));
        assert!(Value::str("x").join_consistent_with(&Value::str("x")));
        assert!(!Value::Int(3).join_consistent_with(&Value::Int(4)));
        assert!(!Value::str("x").join_consistent_with(&Value::str("y")));
    }

    #[test]
    fn separately_allocated_strings_compare_by_text() {
        // Two independent allocations of the same text are equal and
        // hash equal, without sharing a pointer.
        let (a, b) = (Value::str("Toronto"), Value::str("Toronto"));
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(!Arc::ptr_eq(x.arc(), y.arc())),
            _ => unreachable!(),
        }
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_ne!(Value::str("Toronto"), Value::str("Toronto "));
        assert_ne!(Value::str(""), Value::str("\0"));
        // Independently constructed values still order lexicographically.
        assert!(Value::str("Nassau") < Value::str("Toronto"));
        assert!(Value::str("Toronto") < Value::str("Toronto "));
        assert!(Value::str("") < Value::str("a"));
    }

    #[test]
    fn cross_type_values_are_unequal_but_ordered() {
        assert_ne!(Value::Int(1), Value::str("1"));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(5) < Value::str(""));
    }

    #[test]
    fn negative_zero_is_canonicalized() {
        assert_eq!(Value::float(-0.0), Value::float(0.0));
        assert_eq!(hash_of(&Value::float(-0.0)), hash_of(&Value::float(0.0)));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        let _ = Value::float(f64::NAN);
    }

    #[test]
    fn try_float_reports_nan_as_an_error() {
        assert_eq!(Value::try_float(f64::NAN), Err(RelationalError::NanValue));
        assert_eq!(Value::try_float(1.5), Ok(Value::float(1.5)));
        assert_eq!(Value::try_float(-0.0), Ok(Value::float(0.0)));
    }

    #[test]
    fn float_ordering_is_total_over_finite_values() {
        assert!(Value::float(-1.5) < Value::float(0.0));
        assert!(Value::float(0.0) < Value::float(2.25));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(NULL.to_string(), "⊥");
        assert_eq!(Value::Int(4).to_string(), "4");
        assert_eq!(Value::str("Plaza").to_string(), "Plaza");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("a"), Value::str("a"));
        assert_eq!(Value::from(String::from("a")), Value::str("a"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(1.5f64), Value::float(1.5));
    }
}
