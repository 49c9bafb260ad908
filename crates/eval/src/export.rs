//! Exporting and re-importing trained embeddings.
//!
//! Training is expensive relative to serving; this module lets a pipeline
//! train once, persist the factorized model as plain text, and serve top-K
//! recommendations later (or from another process) without the training
//! stack. The format is line-oriented and dependency-free:
//!
//! ```text
//! graphaug-embeddings v1
//! users <I> items <J> dim <d>
//! u <f32> … <f32>      (I lines)
//! i <f32> … <f32>      (J lines)
//! ```

use graphaug_tensor::Mat;

use crate::model::Recommender;

/// A deserialized dot-product scorer: user/item embedding tables only.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddingSnapshot {
    /// `I × d` user embeddings.
    pub user_emb: Mat,
    /// `J × d` item embeddings.
    pub item_emb: Mat,
}

impl Recommender for EmbeddingSnapshot {
    fn name(&self) -> &str {
        "EmbeddingSnapshot"
    }
    fn embeddings(&self) -> Option<(&Mat, &Mat)> {
        Some((&self.user_emb, &self.item_emb))
    }
}

/// Errors raised while parsing an embedding dump.
#[derive(Debug, PartialEq, Eq)]
pub enum ImportError {
    /// Header missing or wrong version tag.
    BadHeader(String),
    /// A row failed to parse.
    BadRow {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        reason: String,
    },
    /// Row counts did not match the header.
    WrongCount {
        /// Expected rows.
        expected: usize,
        /// Rows found.
        found: usize,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::BadHeader(h) => write!(f, "bad header: {h:?}"),
            ImportError::BadRow { line, reason } => write!(f, "line {line}: {reason}"),
            ImportError::WrongCount { expected, found } => {
                write!(f, "expected {expected} embedding rows, found {found}")
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// Serializes any dot-product [`Recommender`] to the text format.
/// Panics if the model does not expose embeddings.
pub fn export_embeddings(model: &dyn Recommender) -> String {
    let (u, i) = model
        .embeddings()
        .expect("export requires an embedding-based model");
    let mut out = String::with_capacity((u.len() + i.len()) * 12);
    out.push_str("graphaug-embeddings v1\n");
    out.push_str(&format!(
        "users {} items {} dim {}\n",
        u.rows(),
        i.rows(),
        u.cols()
    ));
    for r in 0..u.rows() {
        out.push('u');
        for &x in u.row(r) {
            out.push_str(&format!(" {x}"));
        }
        out.push('\n');
    }
    for r in 0..i.rows() {
        out.push('i');
        for &x in i.row(r) {
            out.push_str(&format!(" {x}"));
        }
        out.push('\n');
    }
    out
}

/// Parses a dump produced by [`export_embeddings`]. Rows are collected as
/// they parse and the header's counts are checked at the end, so memory
/// stays bounded by the bytes read whatever the header claims.
pub fn import_embeddings(text: &str) -> Result<EmbeddingSnapshot, ImportError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ImportError::BadHeader("empty input".into()))?;
    if header.trim() != "graphaug-embeddings v1" {
        return Err(ImportError::BadHeader(header.to_string()));
    }
    let (_, shape) = lines
        .next()
        .ok_or_else(|| ImportError::BadHeader("missing shape line".into()))?;
    let tokens: Vec<&str> = shape.split_whitespace().collect();
    let parse_field = |tokens: &[&str], key: &str, at: usize| -> Result<usize, ImportError> {
        if tokens.get(at).copied() != Some(key) {
            return Err(ImportError::BadHeader(shape.to_string()));
        }
        tokens
            .get(at + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ImportError::BadHeader(shape.to_string()))
    };
    let n_users = parse_field(&tokens, "users", 0)?;
    let n_items = parse_field(&tokens, "items", 2)?;
    let dim = parse_field(&tokens, "dim", 4)?;

    // (row values, rows found, rows the header promised) per table.
    let mut tables = [(Vec::new(), 0usize, n_users), (Vec::new(), 0usize, n_items)];
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let tag = it.next().expect("non-empty line");
        let vals: Result<Vec<f32>, _> = it.map(|t| t.parse::<f32>()).collect();
        let vals = vals.map_err(|e| ImportError::BadRow {
            line: idx + 1,
            reason: format!("bad float: {e}"),
        })?;
        if vals.len() != dim {
            return Err(ImportError::BadRow {
                line: idx + 1,
                reason: format!("expected {dim} values, got {}", vals.len()),
            });
        }
        let (rows, found, expected) = match tag {
            "u" => &mut tables[0],
            "i" => &mut tables[1],
            other => {
                return Err(ImportError::BadRow {
                    line: idx + 1,
                    reason: format!("unknown row tag {other:?}"),
                })
            }
        };
        if *found == *expected {
            return Err(ImportError::WrongCount {
                expected: *expected,
                found: *found + 1,
            });
        }
        rows.extend(vals);
        *found += 1;
    }
    let [users, items] = tables.map(|(rows, found, expected)| {
        if found != expected {
            return Err(ImportError::WrongCount { expected, found });
        }
        Ok(Mat::from_vec(expected, dim, rows))
    });
    Ok(EmbeddingSnapshot {
        user_emb: users?,
        item_emb: items?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> EmbeddingSnapshot {
        EmbeddingSnapshot {
            user_emb: Mat::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.5 - 1.0),
            item_emb: Mat::from_fn(4, 2, |r, c| (r as f32) - (c as f32) * 0.25),
        }
    }

    #[test]
    fn round_trip_preserves_scores() {
        let snap = snapshot();
        let text = export_embeddings(&snap);
        let back = import_embeddings(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.score_items(1), snap.score_items(1));
    }

    #[test]
    fn rejects_wrong_version() {
        let err = import_embeddings("graphaug-embeddings v2\nusers 0 items 0 dim 1\n");
        assert!(matches!(err, Err(ImportError::BadHeader(_))));
    }

    #[test]
    fn rejects_truncated_rows() {
        let snap = snapshot();
        let text = export_embeddings(&snap);
        // Drop the final item row.
        let truncated: String =
            text.lines()
                .take(text.lines().count() - 1)
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        let err = import_embeddings(&truncated);
        assert_eq!(
            err,
            Err(ImportError::WrongCount {
                expected: 4,
                found: 3
            })
        );
    }

    #[test]
    fn rejects_bad_floats_with_line_numbers() {
        let text = "graphaug-embeddings v1\nusers 1 items 0 dim 2\nu 0.5 oops\n";
        match import_embeddings(text) {
            Err(ImportError::BadRow { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected BadRow, got {other:?}"),
        }
    }

    #[test]
    fn a_huge_header_is_rejected_without_allocating_it() {
        let text = "graphaug-embeddings v1\nusers 4000000000 items 1 dim 4000000000\n";
        assert_eq!(
            import_embeddings(text),
            Err(ImportError::WrongCount {
                expected: 4_000_000_000,
                found: 0
            })
        );
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let text = "graphaug-embeddings v1\nusers 1 items 0 dim 3\nu 0.5 1.0\n";
        assert!(matches!(
            import_embeddings(text),
            Err(ImportError::BadRow { .. })
        ));
    }
}
