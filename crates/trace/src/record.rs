//! One declaration per report record.
//!
//! A report struct is written once, inside [`json_record!`](crate::json_record):
//! the macro emits the struct as declared plus its [`JsonField`] impl, a
//! JSON object whose keys are the field names in declaration order. The
//! counter structs incremented in the hot loops go through
//! [`json_counters!`](crate::json_counters), which adds the counter count
//! and the merge. Hand-written impls remain
//! only where a key is derived on emit and recomputed on parse, or where
//! the JSON shape is not a struct.

use crate::Json;

/// A value with one JSON form: what a field of a report record is.
pub trait JsonField: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;
    /// Parses the value back. Errors say what was expected;
    /// [`Json::field`] prefixes the key they were found under.
    fn from_json(doc: &Json) -> Result<Self, String>;
}

impl Json {
    /// Parses the required key `key` of this object.
    pub fn field<T: JsonField>(&self, key: &str) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing key '{key}'"))?;
        T::from_json(value).map_err(|e| format!("'{key}': {e}"))
    }
}

/// A field left as raw JSON, for hand-written impls to pick apart.
impl JsonField for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(doc.clone())
    }
}

impl JsonField for u64 {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }
    fn from_json(doc: &Json) -> Result<Self, String> {
        doc.as_u64()
            .ok_or_else(|| "not a non-negative integer".to_string())
    }
}

macro_rules! narrow_uint {
    ($($t:ty),*) => {$(
        impl JsonField for $t {
            fn to_json(&self) -> Json {
                Json::from(*self)
            }
            fn from_json(doc: &Json) -> Result<Self, String> {
                let wide = u64::from_json(doc)?;
                <$t>::try_from(wide).map_err(|_| format!("{wide} does not fit {}", stringify!($t)))
            }
        }
    )*};
}
narrow_uint!(u32, usize);

impl JsonField for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(doc: &Json) -> Result<Self, String> {
        doc.as_f64().ok_or_else(|| "not a number".to_string())
    }
}

impl JsonField for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(doc: &Json) -> Result<Self, String> {
        doc.as_str()
            .map(str::to_string)
            .ok_or_else(|| "not a string".to_string())
    }
}

/// `None` is `null`.
impl<T: JsonField> JsonField for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(doc: &Json) -> Result<Self, String> {
        match doc {
            Json::Null => Ok(None),
            value => T::from_json(value).map(Some),
        }
    }
}

impl<T: JsonField> JsonField for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(doc: &Json) -> Result<Self, String> {
        doc.as_array()
            .ok_or("not an array")?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// An ordered name → value map is a JSON object in insertion order.
impl<T: JsonField> JsonField for Vec<(String, T)> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
    fn from_json(doc: &Json) -> Result<Self, String> {
        match doc {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), T::from_json(v)?)))
                .collect(),
            _ => Err("not an object".to_string()),
        }
    }
}

/// Declares a report record once: emits the struct exactly as written
/// (attributes, docs, visibilities) and its [`JsonField`] impl — an object
/// keyed by the field names in declaration order, every key required on
/// parse and unknown keys ignored.
///
/// A field may be followed by `=> key(f)`: a *derived* key emitted right
/// after it with the value of `f(&self)`, for readers of the file. The
/// parser ignores it, so it can never disagree with the stored fields.
#[macro_export]
macro_rules! json_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident: $ty:ty $(=> $derived:ident($derive:expr))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl $crate::JsonField for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![$(
                    (
                        stringify!($field).to_string(),
                        $crate::JsonField::to_json(&self.$field),
                    ),
                    $((
                        stringify!($derived).to_string(),
                        $crate::JsonField::to_json(&$derive(self)),
                    ),)?
                )*])
            }
            fn from_json(doc: &$crate::Json) -> Result<Self, String> {
                Ok(Self {
                    $($field: doc.field(stringify!($field))?),*
                })
            }
        }
    };
}

/// Declares a struct of `u64` counters once. On top of what
/// [`json_record!`](crate::json_record) emits, the field list drives
/// `N_COUNTERS` and `merge` (field-wise through the named
/// `fn(u64, u64) -> u64`).
#[macro_export]
macro_rules! json_counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident merged by $add:path {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident),* $(,)?
        }
    ) => {
        $crate::json_record! {
            $(#[$meta])*
            $vis struct $name {
                $($(#[$fmeta])* $fvis $field: u64),*
            }
        }

        impl $name {
            /// Number of counters.
            pub const N_COUNTERS: usize = [$(stringify!($field)),*].len();

            /// Adds another block's counters into this one.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field = $add(self.$field, other.$field);)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    json_record! {
        /// A record with one field of every shape.
        #[derive(Debug, Clone, PartialEq)]
        struct Sample {
            /// A counter.
            n: u64 => twice(|s: &Sample| 2 * s.n),
            depth: u32,
            ratio: f64,
            name: String,
            maybe: Option<u64>,
            items: Vec<f64>,
            named: Vec<(String, u64)>,
        }
    }

    json_counters! {
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        struct Pair merged by u64::saturating_add {
            a,
            b,
        }
    }

    fn sample() -> Sample {
        Sample {
            n: 7,
            depth: 2,
            ratio: 0.5,
            name: "x".into(),
            maybe: None,
            items: vec![1.0, 2.5],
            named: vec![("k".into(), 3)],
        }
    }

    #[test]
    fn record_keys_are_the_fields_in_declaration_order() {
        let doc = sample().to_json();
        let Json::Obj(pairs) = &doc else {
            panic!("a record is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["n", "twice", "depth", "ratio", "name", "maybe", "items", "named"]
        );
        assert_eq!(doc.get("maybe"), Some(&Json::Null));
        assert_eq!(doc.get("twice").and_then(Json::as_u64), Some(14));
        assert_eq!(Sample::from_json(&doc).unwrap(), sample());
    }

    #[test]
    fn parse_errors_name_the_key_path() {
        let doc = sample().to_json();
        let Json::Obj(pairs) = &doc else {
            unreachable!()
        };
        let dropped = Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "ratio")
                .cloned()
                .collect(),
        );
        assert_eq!(
            Sample::from_json(&dropped).unwrap_err(),
            "missing key 'ratio'"
        );
        let wrong = doc.clone().set("depth", 1u64 << 40);
        assert!(Sample::from_json(&wrong)
            .unwrap_err()
            .starts_with("'depth': "));
        let nested = Json::object().set("outer", doc.set("items", "no"));
        assert_eq!(
            nested.field::<Sample>("outer").unwrap_err(),
            "'outer': 'items': not an array"
        );
    }

    #[test]
    fn counters_merge_and_round_trip_through_json() {
        let mut p = Pair {
            a: u64::MAX - 1,
            b: 2,
        };
        p.merge(&Pair { a: 5, b: 3 });
        assert_eq!(p, Pair { a: u64::MAX, b: 5 });
        assert_eq!(Pair::N_COUNTERS, 2);
        let small = Pair { a: 1, b: 2 };
        assert_eq!(Pair::from_json(&small.to_json()).unwrap(), small);
    }
}
