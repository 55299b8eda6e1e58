//! The warm-start disk tier: evicted plans are spilled as `ustencil-plan/v3`
//! JSON documents and revived on the next miss, skipping the compile.
//!
//! Files are named by the [`PlanKey::digest`] (16 hex digits), so the tier
//! needs no index: lookup is one `read_to_string` on the derived path.
//! Writes go through a temp file + rename, so a crashed writer leaves at
//! worst a stale `.tmp`, never a half-written plan under a live name.
//!
//! Every failure mode — missing file, unreadable file, corrupt JSON, an old
//! `ustencil-plan/v2` document from a previous build, a well-formed plan
//! for a different degree or smoothness under the key's name — degrades to
//! "no plan here", which the cache answers by recompiling. A poisoned disk
//! tier can cost time, never correctness, and never a panic.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use ustencil_plan::{EvalPlan, PlanKey};

/// A directory of serialized plans keyed by [`PlanKey::digest`].
#[derive(Debug, Clone)]
pub struct DiskTier {
    dir: PathBuf,
}

impl DiskTier {
    /// Opens (creating if needed) a disk tier rooted at `dir`.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The tier's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path a key serializes to.
    pub fn path_of(&self, key: &PlanKey) -> PathBuf {
        self.dir.join(format!("{:016x}.plan.json", key.digest()))
    }

    /// Persists `plan` under `key`, atomically (temp file + rename).
    pub fn store(&self, key: &PlanKey, plan: &EvalPlan) -> io::Result<()> {
        let path = self.path_of(key);
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, plan.to_pretty_string())?;
        fs::rename(&tmp, &path)
    }

    /// Loads the plan stored under `key`, or `None` when there is none,
    /// the file does not parse as a current-format plan (corrupt, truncated,
    /// or written by an older serialization version), or it parses as a
    /// plan for a different degree or smoothness than `key` names. Such
    /// files are removed so the next writer starts clean.
    pub fn load(&self, key: &PlanKey) -> Option<EvalPlan> {
        let path = self.path_of(key);
        let text = fs::read_to_string(&path).ok()?;
        match EvalPlan::from_json(&text) {
            Ok(plan) if plan.degree() == key.degree && plan.smoothness() == key.smoothness => {
                Some(plan)
            }
            _ => {
                // Stale, corrupt or foreign: drop it rather than re-failing
                // forever.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Number of plan files currently stored.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|it| {
                it.filter_map(Result::ok)
                    .filter(|e| {
                        e.path()
                            .file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.ends_with(".plan.json"))
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the tier holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
