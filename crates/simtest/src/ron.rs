//! The RON dialect of scenario files: one value model, one reader, one
//! writer (the build has no registry access, hence no serde).
//!
//! Text is read into a [`Value`] tree and written back from one; each type
//! in a scenario file converts to and from a `Value` through [`Ron`].
//! Records and enums implement it from a field table ([`ron_record!`],
//! [`ron_enum!`], [`ron_tuple!`]), so a field's RON name and its legacy
//! default are written down once and serve both directions. The reader
//! takes fields in any order, `//` comment lines and trailing commas.

/// A parsed, or to-be-written, RON value.
#[derive(Debug)]
pub(crate) enum Value {
    /// A bare word: a number, `true`, `None`, a unit variant, a region.
    Atom(String),
    /// A double-quoted string (no escapes).
    Str(String),
    /// `Some(value)`.
    Some(Box<Value>),
    /// `[value, …]`.
    List(Vec<Value>),
    /// `(field: value, …)`, or `Name(field: value, …)` for an enum variant
    /// (written as the bare `Name` when it has no fields).
    Record(Option<String>, Fields),
}

/// A record's `name: value` pairs, in the order they were read or are
/// written.
pub(crate) type Fields = Vec<(String, Value)>;

/// A type with a RON form.
pub(crate) trait Ron: Sized {
    /// The value this is written as.
    fn to_value(&self) -> Value;
    /// Reads this back from a value; the error names what is wrong.
    fn from_value(value: Value) -> Result<Self, String>;
}

impl Value {
    /// The word of an [`Value::Atom`].
    pub(crate) fn atom(self) -> Result<String, String> {
        match self {
            Value::Atom(word) => Ok(word),
            other => other.mismatch("a bare value"),
        }
    }

    fn mismatch<T>(&self, expected: &str) -> Result<T, String> {
        let found: String = inline(self).chars().take(40).collect();
        Err(format!("expected {expected}, found `{found}`"))
    }
}

/// Reads one value that spans the whole of `text`.
pub(crate) fn read(text: &str) -> Result<Value, String> {
    let mut tokens = tokens(text).into_iter().peekable();
    let value = value(&mut tokens)?;
    match tokens.next() {
        Some(extra) => Err(format!("unexpected `{extra}` after the value")),
        None => Ok(value),
    }
}

/// Writes `value` as a file. An unnamed record outside any list or variant
/// is written one field per line, everything else on one line.
pub(crate) fn write(value: &Value) -> String {
    block(value, "") + "\n"
}

fn block(value: &Value, pad: &str) -> String {
    let Value::Record(None, fields) = value else {
        return inline(value);
    };
    let inner = format!("{pad}    ");
    let body: String = fields
        .iter()
        .map(|(name, field)| format!("{inner}{name}: {},\n", block(field, &inner)))
        .collect();
    format!("(\n{body}{pad})")
}

fn inline(value: &Value) -> String {
    match value {
        Value::Atom(word) => word.clone(),
        Value::Str(s) => format!("\"{s}\""),
        Value::Some(inner) => format!("Some({})", inline(inner)),
        Value::List(items) => {
            let items: Vec<String> = items.iter().map(inline).collect();
            format!("[{}]", items.join(", "))
        }
        Value::Record(Some(name), fields) if fields.is_empty() => name.clone(),
        Value::Record(name, fields) => {
            let fields: Vec<String> = fields
                .iter()
                .map(|(name, field)| format!("{name}: {}", inline(field)))
                .collect();
            format!("{}({})", name.as_deref().unwrap_or(""), fields.join(", "))
        }
    }
}

const PUNCTUATION: &str = "()[],:";

/// Splits `text` into punctuation, quoted strings and bare words, skipping
/// whitespace and `//` comments.
fn tokens(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = text.trim_start();
    while let Some(c) = rest.chars().next() {
        let len = match c {
            '/' if rest.starts_with("//") => rest.find('\n').unwrap_or(rest.len()),
            '"' => rest[1..].find('"').map_or(rest.len(), |end| end + 2),
            c if PUNCTUATION.contains(c) => 1,
            _ => rest
                .find(|c: char| c.is_whitespace() || c == '"' || PUNCTUATION.contains(c))
                .unwrap_or(rest.len()),
        };
        if !rest.starts_with("//") {
            out.push(&rest[..len]);
        }
        rest = rest[len..].trim_start();
    }
    out
}

type Tokens<'a> = std::iter::Peekable<std::vec::IntoIter<&'a str>>;

fn next<'a>(tokens: &mut Tokens<'a>) -> Result<&'a str, String> {
    let end = || "unexpected end of input (truncated file?)".to_string();
    tokens.next().ok_or_else(end)
}

fn expect(tokens: &mut Tokens, token: &str) -> Result<(), String> {
    match next(tokens)? {
        found if found == token => Ok(()),
        found => Err(format!("expected `{token}`, found `{found}`")),
    }
}

fn value(tokens: &mut Tokens) -> Result<Value, String> {
    let token = next(tokens)?;
    match token {
        "[" => items(tokens, "]", value).map(Value::List),
        "(" => items(tokens, ")", field).map(|fields| Value::Record(None, fields)),
        _ if token.starts_with('"') => match token[1..].strip_suffix('"') {
            Some(s) => Ok(Value::Str(s.to_string())),
            None => Err("unterminated string".to_string()),
        },
        _ if PUNCTUATION.contains(token) => Err(format!("expected a value, found `{token}`")),
        _ if tokens.next_if_eq(&"(").is_none() => Ok(Value::Atom(token.to_string())),
        "Some" => {
            let inner = value(tokens)?;
            expect(tokens, ")").map(|()| Value::Some(Box::new(inner)))
        }
        _ => match items(tokens, ")", field) {
            Ok(fields) => Ok(Value::Record(Some(token.to_string()), fields)),
            Err(e) => Err(format!("{token}: {e}")),
        },
    }
}

/// `name: value`.
fn field(tokens: &mut Tokens) -> Result<(String, Value), String> {
    let name = next(tokens)?;
    let value = expect(tokens, ":").and_then(|()| value(tokens));
    Ok((name.to_string(), value.map_err(|e| format!("{name}: {e}"))?))
}

/// Comma-separated items up to `close`; a trailing comma is allowed.
fn items<T>(
    tokens: &mut Tokens,
    close: &str,
    item: fn(&mut Tokens) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    while tokens.next_if_eq(&close).is_none() {
        out.push(item(tokens)?);
        if tokens.next_if_eq(&",").is_none() {
            expect(tokens, close)?;
            break;
        }
    }
    Ok(out)
}

/// The name and fields of a record (`None` for a plain `(..)`) or of an
/// enum variant (a bare `Name` has no fields).
pub(crate) fn record(value: Value) -> Result<(Option<String>, Fields), String> {
    match value {
        Value::Atom(name) => Ok((Some(name), Vec::new())),
        Value::Record(name, fields) => Ok((name, fields)),
        other => other.mismatch("a record"),
    }
}

/// Takes field `name` out of `fields`; when it is absent, `default` if
/// given, else an error.
pub(crate) fn take<T: Ron>(
    fields: &mut Fields,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    let Some(i) = fields.iter().position(|(field, _)| field == name) else {
        return default.ok_or_else(|| format!("missing field `{name}`"));
    };
    let value = fields.remove(i).1;
    if fields.iter().any(|(field, _)| field == name) {
        return Err(format!("repeated field `{name}`"));
    }
    T::from_value(value).map_err(|e| format!("{name}: {e}"))
}

/// `out`, once every field has been taken.
pub(crate) fn done<T>(out: T, fields: &[(String, Value)]) -> Result<T, String> {
    match fields.first() {
        Some((name, _)) => Err(format!("unknown field `{name}`")),
        None => Ok(out),
    }
}

/// The RON name of a table row: the literal if given, else the field name.
#[rustfmt::skip]
macro_rules! ron_name {
    ($field:ident) => { stringify!($field) };
    ($field:ident $name:literal) => { $name };
}

/// Implements [`Ron`] for a struct from its field table, one row per field
/// in output order: `field`, or `field: "name"` to write it under another
/// name. Rows under `late` are fields added after the first format: a file
/// without them reads as the field type's default.
macro_rules! ron_record {
    ($ty:ident { $($field:ident $(: $name:literal)?),* $(,)? }
     $(late { $($late:ident $(: $late_name:literal)?),* $(,)? })?) => {
        impl $crate::ron::Ron for $ty {
            fn to_value(&self) -> $crate::ron::Value {
                $crate::ron::Value::Record(None, vec![
                    $(($crate::ron::ron_name!($field $($name)?).to_string(),
                       $crate::ron::Ron::to_value(&self.$field)),)*
                    $($(($crate::ron::ron_name!($late $($late_name)?).to_string(),
                         $crate::ron::Ron::to_value(&self.$late)),)*)?
                ])
            }

            fn from_value(value: $crate::ron::Value) -> Result<Self, String> {
                let (None, mut fields) = $crate::ron::record(value)? else {
                    return Err("expected a record `(..)`, found a variant".to_string());
                };
                let f = &mut fields;
                let out = Self {
                    $($field: $crate::ron::take(f, $crate::ron::ron_name!($field $($name)?), None)?,)*
                    $($($late: $crate::ron::take(
                        f,
                        $crate::ron::ron_name!($late $($late_name)?),
                        Some(Default::default()),
                    )?,)*)?
                };
                $crate::ron::done(out, &fields)
            }
        }
    };
}

/// Implements [`Ron`] for an enum from its variant table: a unit variant
/// is written as its bare name, a struct variant as `Name(field: value, …)`
/// with the rows of [`ron_record!`].
macro_rules! ron_enum {
    ($ty:ident { $($variant:ident $({ $($field:ident $(: $name:literal)?),* })?),* $(,)? }) => {
        impl $crate::ron::Ron for $ty {
            fn to_value(&self) -> $crate::ron::Value {
                match self {
                    $($ty::$variant $({ $($field),* })? => $crate::ron::Value::Record(
                        Some(stringify!($variant).to_string()),
                        vec![$($(($crate::ron::ron_name!($field $($name)?).to_string(),
                                  $crate::ron::Ron::to_value($field))),*)?],
                    ),)*
                }
            }

            fn from_value(value: $crate::ron::Value) -> Result<Self, String> {
                let (Some(variant), mut fields) = $crate::ron::record(value)? else {
                    return Err(format!("expected a {} variant, found `(..)`", stringify!($ty)));
                };
                let prefix = |e: String| format!("{variant}: {e}");
                let out = match variant.as_str() {
                    $(stringify!($variant) => $ty::$variant $({ $($field: $crate::ron::take(
                        &mut fields,
                        $crate::ron::ron_name!($field $($name)?),
                        None,
                    ).map_err(prefix)?),* })?,)*
                    _ => return Err(prefix(format!("unknown {} variant", stringify!($ty)))),
                };
                $crate::ron::done(out, &fields).map_err(prefix)
            }
        }
    };
}

/// Implements [`Ron`] for a tuple written as a record: `index: name` rows
/// in output order.
macro_rules! ron_tuple {
    ($ty:ty { $($idx:tt: $name:ident),* $(,)? }) => {
        impl $crate::ron::Ron for $ty {
            fn to_value(&self) -> $crate::ron::Value {
                $crate::ron::Value::Record(None, vec![
                    $((stringify!($name).to_string(), $crate::ron::Ron::to_value(&self.$idx))),*
                ])
            }

            fn from_value(value: $crate::ron::Value) -> Result<Self, String> {
                let (None, mut fields) = $crate::ron::record(value)? else {
                    return Err("expected a record `(..)`, found a variant".to_string());
                };
                let out = ($($crate::ron::take(&mut fields, stringify!($name), None)?,)*);
                $crate::ron::done(out, &fields)
            }
        }
    };
}

pub(crate) use {ron_enum, ron_name, ron_record, ron_tuple};

/// Numbers and booleans are written with `{:?}` (which round-trips floats
/// exactly) and read with `FromStr`.
macro_rules! ron_atom {
    ($($ty:ty),*) => {$(
        impl Ron for $ty {
            fn to_value(&self) -> Value {
                Value::Atom(format!("{self:?}"))
            }

            fn from_value(value: Value) -> Result<Self, String> {
                let word = value.atom()?;
                word.parse().map_err(|_| format!("`{word}` is not a {}", stringify!($ty)))
            }
        }
    )*};
}

ron_atom!(u64, usize, f32, f64, bool);

impl Ron for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn from_value(value: Value) -> Result<Self, String> {
        match value {
            Value::Str(s) => Ok(s),
            other => other.mismatch("a string"),
        }
    }
}

impl<T: Ron> Ron for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => Value::Some(Box::new(inner.to_value())),
            None => Value::Atom("None".to_string()),
        }
    }

    fn from_value(value: Value) -> Result<Self, String> {
        match value {
            Value::Some(inner) => T::from_value(*inner).map(Some),
            Value::Atom(word) if word == "None" => Ok(None),
            other => other.mismatch("`None` or `Some(..)`"),
        }
    }
}

impl<T: Ron> Ron for Vec<T> {
    fn to_value(&self) -> Value {
        Value::List(self.iter().map(T::to_value).collect())
    }

    fn from_value(value: Value) -> Result<Self, String> {
        let Value::List(items) = value else {
            return value.mismatch("a list");
        };
        let item = |(i, item)| T::from_value(item).map_err(|e| format!("[{i}]: {e}"));
        items.into_iter().enumerate().map(item).collect()
    }
}
