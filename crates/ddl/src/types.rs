//! SQL data-type model and normalization.
//!
//! The study counts an attribute as *maintained* when its data type changes.
//! Dialect noise must therefore not register as change: `INT`, `INTEGER` and
//! `INT(11)` describe the same logical type in MySQL dumps, while
//! `VARCHAR(100)` → `VARCHAR(255)` is a real type change. The
//! [`DataType::logical_eq`] relation encodes exactly that: family + length
//! parameters matter, display-width on integers and synonyms do not.

use crate::token::Text;
use serde::de::Error;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The normalized family of a SQL data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TypeFamily {
    /// `TINYINT`
    TinyInt,
    /// `SMALLINT`
    SmallInt,
    /// `MEDIUMINT`
    MediumInt,
    /// `INT` / `INTEGER`
    Int,
    /// `BIGINT`
    BigInt,
    /// `DECIMAL` / `NUMERIC` / `DEC`
    Decimal,
    /// `FLOAT`
    Float,
    /// `DOUBLE` / `DOUBLE PRECISION` / `REAL`
    Double,
    /// `BIT`
    Bit,
    /// `BOOLEAN` / `BOOL`
    Boolean,
    /// `CHAR` / `CHARACTER`
    Char,
    /// `VARCHAR` / `CHARACTER VARYING` / `CHARACTER(n) VARYING`
    Varchar,
    /// `TINYTEXT`, `TEXT`, `MEDIUMTEXT`, `LONGTEXT` — length class kept in params
    Text,
    /// `TINYBLOB`, `BLOB`, `MEDIUMBLOB`, `LONGBLOB`
    Blob,
    /// `BINARY`
    Binary,
    /// `VARBINARY`
    Varbinary,
    /// `DATE`
    Date,
    /// `TIME`
    Time,
    /// `DATETIME`
    DateTime,
    /// `TIMESTAMP`
    Timestamp,
    /// `YEAR`
    Year,
    /// `ENUM(...)`
    Enum,
    /// `SET(...)`
    Set,
    /// `JSON`
    Json,
    /// `UUID` / `GUID`
    Uuid,
    /// `GEOMETRY`, `POINT`, and friends
    Spatial,
    /// `SERIAL` / `BIGSERIAL` (Postgres-style auto-increment integers)
    Serial,
    /// Anything we do not recognize; the raw name is kept in
    /// [`DataType::raw_name`].
    Other,
}

impl TypeFamily {
    /// Whether integer display width (`INT(11)`) is a purely cosmetic
    /// parameter for this family.
    pub fn width_is_cosmetic(&self) -> bool {
        matches!(
            self,
            TypeFamily::TinyInt
                | TypeFamily::SmallInt
                | TypeFamily::MediumInt
                | TypeFamily::Int
                | TypeFamily::BigInt
                | TypeFamily::Serial
                | TypeFamily::Boolean
                | TypeFamily::Year
        )
    }

    /// The canonical spelling used when rendering.
    pub fn canonical_name(&self) -> &'static str {
        match self {
            TypeFamily::TinyInt => "TINYINT",
            TypeFamily::SmallInt => "SMALLINT",
            TypeFamily::MediumInt => "MEDIUMINT",
            TypeFamily::Int => "INT",
            TypeFamily::BigInt => "BIGINT",
            TypeFamily::Decimal => "DECIMAL",
            TypeFamily::Float => "FLOAT",
            TypeFamily::Double => "DOUBLE",
            TypeFamily::Bit => "BIT",
            TypeFamily::Boolean => "BOOLEAN",
            TypeFamily::Char => "CHAR",
            TypeFamily::Varchar => "VARCHAR",
            TypeFamily::Text => "TEXT",
            TypeFamily::Blob => "BLOB",
            TypeFamily::Binary => "BINARY",
            TypeFamily::Varbinary => "VARBINARY",
            TypeFamily::Date => "DATE",
            TypeFamily::Time => "TIME",
            TypeFamily::DateTime => "DATETIME",
            TypeFamily::Timestamp => "TIMESTAMP",
            TypeFamily::Year => "YEAR",
            TypeFamily::Enum => "ENUM",
            TypeFamily::Set => "SET",
            TypeFamily::Json => "JSON",
            TypeFamily::Uuid => "UUID",
            TypeFamily::Spatial => "GEOMETRY",
            TypeFamily::Serial => "SERIAL",
            TypeFamily::Other => "OTHER",
        }
    }
}

/// The numeric parameters of a type, in declaration order: a length, or a
/// precision and a scale. Up to [`Params::INLINE`] are held inline, so a
/// type's parameters cost no heap allocation; a longer list is boxed.
///
/// It reads as a `[u32]`, and compares, hashes, prints and serializes as
/// the list it holds.
#[derive(Clone)]
pub struct Params(ParamsRepr);

/// A list of at most [`Params::INLINE`] parameters is always inline, so
/// equal lists read as equal slices whatever their history.
#[derive(Clone)]
enum ParamsRepr {
    Inline(u8, [u32; Params::INLINE]),
    Heap(Vec<u32>),
}

impl Params {
    /// The most parameters held inline.
    pub const INLINE: usize = 3;

    /// No parameters.
    pub const fn new() -> Params {
        Params(ParamsRepr::Inline(0, [0; Params::INLINE]))
    }

    /// Append `p`.
    pub fn push(&mut self, p: u32) {
        match &mut self.0 {
            ParamsRepr::Inline(len, buf) if usize::from(*len) < Params::INLINE => {
                buf[usize::from(*len)] = p;
                *len += 1;
            }
            ParamsRepr::Inline(_, buf) => {
                let mut heap = buf.to_vec();
                heap.push(p);
                self.0 = ParamsRepr::Heap(heap);
            }
            ParamsRepr::Heap(heap) => heap.push(p),
        }
    }

    /// The parameters.
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            ParamsRepr::Inline(len, buf) => &buf[..usize::from(*len)],
            ParamsRepr::Heap(heap) => heap,
        }
    }
}

impl Default for Params {
    fn default() -> Params {
        Params::new()
    }
}

impl Deref for Params {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl FromIterator<u32> for Params {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Params {
        let mut params = Params::new();
        for p in iter {
            params.push(p);
        }
        params
    }
}

impl PartialEq for Params {
    fn eq(&self, other: &Params) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Params {}

impl PartialEq<Vec<u32>> for Params {
    fn eq(&self, other: &Vec<u32>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Params {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl Serialize for Params {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl Deserialize for Params {
    fn from_value(v: &Value) -> Result<Params, Error> {
        Vec::<u32>::from_value(v).map(|ps| ps.into_iter().collect())
    }
}

/// A parsed data type: family, numeric parameters, enum/set values, and the
/// raw spelling found in the source.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataType {
    /// Normalized family.
    pub family: TypeFamily,
    /// Numeric parameters in declaration order (length, or precision+scale).
    pub params: Params,
    /// Value list for `ENUM`/`SET` types.
    pub values: Vec<String>,
    /// `UNSIGNED` modifier (significant for numeric types).
    pub unsigned: bool,
    /// The raw, uppercased type name from the source (for `Other` fidelity
    /// and diagnostics).
    pub raw_name: Text,
}

impl DataType {
    /// Build a type from its raw name, classifying it into a family.
    pub fn from_name(raw: &str) -> Self {
        DataType::from_upper(Text::upper(raw))
    }

    /// [`DataType::from_name`] for a name already uppercased.
    pub(crate) fn from_upper(upper: Text) -> Self {
        let family = classify(&upper);
        DataType {
            family,
            params: Params::new(),
            values: Vec::new(),
            unsigned: false,
            raw_name: upper,
        }
    }

    /// Shorthand for a plain `INT`.
    pub fn int() -> Self {
        DataType::from_name("INT")
    }

    /// Shorthand for `VARCHAR(n)`.
    pub fn varchar(n: u32) -> Self {
        let mut t = DataType::from_name("VARCHAR");
        t.params.push(n);
        t
    }

    /// Shorthand for a plain `TEXT`.
    pub fn text() -> Self {
        DataType::from_name("TEXT")
    }

    /// Shorthand for `DATETIME`.
    pub fn datetime() -> Self {
        DataType::from_name("DATETIME")
    }

    /// Shorthand for `DECIMAL(p, s)`.
    pub fn decimal(p: u32, s: u32) -> Self {
        let mut t = DataType::from_name("DECIMAL");
        t.params.push(p);
        t.params.push(s);
        t
    }

    /// Logical equality: the relation under which a transition counts an
    /// attribute as "data type changed".
    ///
    /// Two types are logically equal when their families match, their
    /// *significant* parameters match, their signedness matches (for numeric
    /// families) and their value lists match (for `ENUM`/`SET`). For integer
    /// families the display width is cosmetic and ignored, so
    /// `INT(11) == INTEGER`.
    pub fn logical_eq(&self, other: &DataType) -> bool {
        if self.family != other.family {
            return false;
        }
        if self.family == TypeFamily::Other && self.raw_name != other.raw_name {
            return false;
        }
        if self.is_numeric() && self.unsigned != other.unsigned {
            return false;
        }
        if !self.family.width_is_cosmetic() && self.params != other.params {
            return false;
        }
        if matches!(self.family, TypeFamily::Enum | TypeFamily::Set)
            && self.values != other.values
        {
            return false;
        }
        true
    }

    /// Whether this is a numeric family (where `UNSIGNED` is significant).
    pub fn is_numeric(&self) -> bool {
        matches!(
            self.family,
            TypeFamily::TinyInt
                | TypeFamily::SmallInt
                | TypeFamily::MediumInt
                | TypeFamily::Int
                | TypeFamily::BigInt
                | TypeFamily::Decimal
                | TypeFamily::Float
                | TypeFamily::Double
                | TypeFamily::Serial
        )
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.family == TypeFamily::Other {
            write!(f, "{}", self.raw_name)?;
        } else if self.family == TypeFamily::Text || self.family == TypeFamily::Blob {
            // Preserve TINYTEXT/MEDIUMTEXT/... spellings.
            write!(f, "{}", self.raw_name)?;
        } else {
            write!(f, "{}", self.family.canonical_name())?;
        }
        if matches!(self.family, TypeFamily::Enum | TypeFamily::Set) {
            write!(f, "(")?;
            for (i, v) in self.values.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "'{}'", v.replace('\'', "''"))?;
            }
            write!(f, ")")?;
        } else if !self.params.is_empty() {
            write!(f, "(")?;
            for (i, p) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
        }
        if self.unsigned {
            write!(f, " UNSIGNED")?;
        }
        Ok(())
    }
}

/// Map an uppercased raw type name to its family.
fn classify(upper: &str) -> TypeFamily {
    match upper {
        "TINYINT" | "INT1" => TypeFamily::TinyInt,
        "SMALLINT" | "INT2" => TypeFamily::SmallInt,
        "MEDIUMINT" | "INT3" | "MIDDLEINT" => TypeFamily::MediumInt,
        "INT" | "INTEGER" | "INT4" => TypeFamily::Int,
        "BIGINT" | "INT8" => TypeFamily::BigInt,
        "DECIMAL" | "NUMERIC" | "DEC" | "FIXED" | "NUMBER" | "MONEY" => TypeFamily::Decimal,
        "FLOAT" | "FLOAT4" => TypeFamily::Float,
        "DOUBLE" | "REAL" | "FLOAT8" => TypeFamily::Double,
        "BIT" => TypeFamily::Bit,
        "BOOLEAN" | "BOOL" => TypeFamily::Boolean,
        "CHAR" | "CHARACTER" | "NCHAR" => TypeFamily::Char,
        "VARCHAR" | "NVARCHAR" | "VARCHAR2" | "CHARACTERVARYING" => TypeFamily::Varchar,
        "TEXT" | "TINYTEXT" | "MEDIUMTEXT" | "LONGTEXT" | "CLOB" | "NTEXT" => TypeFamily::Text,
        "BLOB" | "TINYBLOB" | "MEDIUMBLOB" | "LONGBLOB" | "BYTEA" | "IMAGE" => TypeFamily::Blob,
        "BINARY" => TypeFamily::Binary,
        "VARBINARY" => TypeFamily::Varbinary,
        "DATE" => TypeFamily::Date,
        "TIME" => TypeFamily::Time,
        "DATETIME" | "SMALLDATETIME" | "DATETIME2" => TypeFamily::DateTime,
        "TIMESTAMP" | "TIMESTAMPTZ" => TypeFamily::Timestamp,
        "YEAR" => TypeFamily::Year,
        "ENUM" => TypeFamily::Enum,
        "SET" => TypeFamily::Set,
        "JSON" | "JSONB" => TypeFamily::Json,
        "UUID" | "GUID" | "UNIQUEIDENTIFIER" => TypeFamily::Uuid,
        "GEOMETRY" | "POINT" | "LINESTRING" | "POLYGON" | "MULTIPOINT" | "MULTILINESTRING"
        | "MULTIPOLYGON" | "GEOMETRYCOLLECTION" => TypeFamily::Spatial,
        "SERIAL" | "BIGSERIAL" | "SMALLSERIAL" => TypeFamily::Serial,
        _ => TypeFamily::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(name: &str) -> DataType {
        DataType::from_name(name)
    }

    #[test]
    fn params_past_the_inline_limit_read_as_the_list() {
        for n in 0..=Params::INLINE + 3 {
            let list: Vec<u32> = (10..10 + n as u32).collect();
            let params: Params = list.iter().copied().collect();
            assert_eq!(params.as_slice(), list.as_slice());
            assert_eq!(params, list);
            assert_eq!(format!("{params:?}"), format!("{list:?}"));
            let value = serde::Serialize::to_value(&params);
            assert_eq!(value, serde::Serialize::to_value(&list));
            let back: Params = serde::Deserialize::from_value(&value).unwrap();
            assert_eq!(back, params);
        }
        let mut t = ty("an_extraordinarily_long_user_type_name");
        t.params = [3, 4, 5, 6].into_iter().collect();
        assert_eq!(
            t.to_string(),
            "AN_EXTRAORDINARILY_LONG_USER_TYPE_NAME(3,4,5,6)"
        );
        assert_eq!(ty("VarChar").raw_name, "VARCHAR");
        assert_eq!(ty("größe_typ").raw_name, "GRößE_TYP");
    }

    #[test]
    fn synonyms_share_a_family() {
        assert_eq!(ty("INTEGER").family, TypeFamily::Int);
        assert_eq!(ty("int").family, TypeFamily::Int);
        assert_eq!(ty("NUMERIC").family, TypeFamily::Decimal);
        assert_eq!(ty("bool").family, TypeFamily::Boolean);
        assert_eq!(ty("longtext").family, TypeFamily::Text);
    }

    #[test]
    fn int_display_width_is_cosmetic() {
        let mut a = ty("INT");
        a.params.push(11);
        let b = ty("INTEGER");
        assert!(a.logical_eq(&b));
        assert!(b.logical_eq(&a));
    }

    #[test]
    fn varchar_length_is_significant() {
        assert!(!DataType::varchar(100).logical_eq(&DataType::varchar(255)));
        assert!(DataType::varchar(255).logical_eq(&DataType::varchar(255)));
    }

    #[test]
    fn decimal_precision_scale_significant() {
        assert!(!DataType::decimal(10, 2).logical_eq(&DataType::decimal(12, 2)));
        assert!(DataType::decimal(10, 2).logical_eq(&DataType::decimal(10, 2)));
    }

    #[test]
    fn signedness_matters_for_numerics() {
        let mut a = ty("INT");
        a.unsigned = true;
        assert!(!a.logical_eq(&ty("INT")));
    }

    #[test]
    fn enum_values_matter() {
        let mut a = ty("ENUM");
        a.values = vec!["a".into(), "b".into()];
        let mut b = ty("ENUM");
        b.values = vec!["a".into()];
        assert!(!a.logical_eq(&b));
        b.values.push("b".into());
        assert!(a.logical_eq(&b));
    }

    #[test]
    fn other_types_compare_by_raw_name() {
        assert!(ty("HYPERLOGLOG").logical_eq(&ty("hyperloglog")));
        assert!(!ty("HYPERLOGLOG").logical_eq(&ty("SKETCH")));
    }

    #[test]
    fn text_size_classes_are_distinct_spellings_same_family() {
        // TEXT vs LONGTEXT: same family, params empty — logically equal only
        // when raw spelling aside; we treat family Text as one logical type
        // class, so TEXT -> LONGTEXT is NOT a type change under logical_eq.
        assert!(ty("TEXT").logical_eq(&ty("LONGTEXT")));
    }

    #[test]
    fn display_renders_canonically() {
        let mut v = DataType::varchar(255);
        assert_eq!(v.to_string(), "VARCHAR(255)");
        v.unsigned = false;
        let mut e = ty("ENUM");
        e.values = vec!["on".into(), "off".into()];
        assert_eq!(e.to_string(), "ENUM('on','off')");
        let mut i = ty("INT");
        i.unsigned = true;
        assert_eq!(i.to_string(), "INT UNSIGNED");
        assert_eq!(ty("LONGTEXT").to_string(), "LONGTEXT");
    }

    #[test]
    fn display_escapes_enum_quotes() {
        let mut e = ty("ENUM");
        e.values = vec!["it's".into()];
        assert_eq!(e.to_string(), "ENUM('it''s')");
    }
}
