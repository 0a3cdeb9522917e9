//! What "under a prefix" means, prepared once and tested on bytes.
//!
//! A store query, a consumer's filter and a remote reader's reply check
//! all ask the same question of many paths: is this path under that
//! prefix? The answer is `Path::starts_with`'s, which compares
//! components. [`PathPrefix`] gets the same answer from the bytes: the
//! prefix is spelled canonically once (its components, joined), and a
//! canonically spelled path is under it exactly when its bytes start
//! with the prefix and the match ends at a component boundary. A path
//! spelled otherwise — `//`, `/./`, a trailing `/` — is handed to
//! `Path::starts_with`, so every input gets the component-wise answer.

use std::borrow::Cow;
use std::path::Path;

/// A path prefix prepared for testing many paths against it.
///
/// [`PathPrefix::matches`] answers exactly what
/// `Path::new(path).starts_with(prefix)` answers, for every path and
/// every prefix.
///
/// ```
/// use sdci_core::PathPrefix;
/// use std::path::Path;
///
/// let prefix = PathPrefix::new(Path::new("/data//run/"));
/// assert!(prefix.matches("/data/run/out.h5"));
/// assert!(prefix.matches("/data/run"));
/// assert!(!prefix.matches("/data/runs/out.h5"));
/// assert!(prefix.matches("/data/./run/out.h5"));
/// ```
#[derive(Debug, Clone)]
pub struct PathPrefix<'a>(Form<'a>);

#[derive(Debug, Clone)]
enum Form<'a> {
    /// No components: every path starts with it.
    Any,
    /// The canonical spelling, and the length of its parent directory's
    /// spelling within it (`None` for `/`, which has no parent).
    Bytes { canon: Cow<'a, str>, parent: Option<usize> },
    /// A prefix that is not UTF-8; only `Path::starts_with` judges it.
    Path(Cow<'a, Path>),
}

/// What a directory's events can be, against one prefix: a store
/// segment sorts its directories into these once per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DirClass {
    /// No event in the directory is under the prefix.
    None,
    /// Every event in the directory is under the prefix.
    All,
    /// Each event must be tested: the directory is the prefix's parent
    /// (an event there may *be* the prefix) or is not spelled
    /// canonically.
    TestEach,
}

impl<'a> PathPrefix<'a> {
    /// Prepares `prefix`, borrowing it when it is already canonical.
    pub fn new(prefix: &'a Path) -> PathPrefix<'a> {
        let Some(text) = prefix.to_str() else {
            return PathPrefix(Form::Path(Cow::Borrowed(prefix)));
        };
        let canon = if is_plain(text.as_bytes()) {
            Cow::Borrowed(text)
        } else {
            let mut joined = String::with_capacity(text.len());
            for component in prefix.components() {
                if !joined.is_empty() && !joined.ends_with('/') {
                    joined.push('/');
                }
                // A slice of a UTF-8 prefix, so nothing is lost.
                joined.push_str(&component.as_os_str().to_string_lossy());
            }
            Cow::Owned(joined)
        };
        if canon.is_empty() {
            return PathPrefix(Form::Any);
        }
        let parent = match canon.rfind('/') {
            Some(0) if canon.len() == 1 => None,
            Some(0) => Some(1),
            Some(i) => Some(i),
            None => Some(0),
        };
        PathPrefix(Form::Bytes { canon, parent })
    }

    /// The same prefix, owning what it borrowed.
    pub fn into_owned(self) -> PathPrefix<'static> {
        PathPrefix(match self.0 {
            Form::Any => Form::Any,
            Form::Bytes { canon, parent } => {
                Form::Bytes { canon: Cow::Owned(canon.into_owned()), parent }
            }
            Form::Path(p) => Form::Path(Cow::Owned(p.into_owned())),
        })
    }

    /// Whether `path` is under this prefix: `Path::starts_with`'s answer.
    pub fn matches(&self, path: &str) -> bool {
        match &self.0 {
            Form::Any => true,
            Form::Bytes { canon, .. } => {
                starts_at_boundary(path, canon)
                    || (!is_plain(path.as_bytes()) && Path::new(path).starts_with(canon.as_ref()))
            }
            Form::Path(prefix) => Path::new(path).starts_with(prefix),
        }
    }

    /// Sorts the directory spelled `dir` — everything before an event
    /// path's last `/` (see [`dir_of`]) — into its [`DirClass`].
    pub(crate) fn classify(&self, dir: &str) -> DirClass {
        match &self.0 {
            Form::Any => DirClass::All,
            Form::Path(_) => DirClass::TestEach,
            Form::Bytes { canon, parent } => {
                if !is_plain(dir.as_bytes()) {
                    DirClass::TestEach
                } else if starts_at_boundary(dir, canon) {
                    DirClass::All
                } else if parent.is_some_and(|n| dir == &canon[..n]) {
                    DirClass::TestEach
                } else {
                    DirClass::None
                }
            }
        }
    }
}

/// The directory an event path is filed under: the bytes before its last
/// `/` (`/` itself when that is the first byte), or `""` for a path with
/// no `/`. A path's components are its directory's plus, at most, the
/// name after that `/`, so a directory under a prefix holds only paths
/// under it.
pub(crate) fn dir_of(path: &str) -> &str {
    match path.as_bytes().iter().rposition(|&b| b == b'/') {
        None => "",
        Some(0) => &path[..1],
        Some(i) => &path[..i],
    }
}

/// Whether `path` starts with the canonical, non-empty `canon` at a
/// component boundary.
fn starts_at_boundary(path: &str, canon: &str) -> bool {
    path.starts_with(canon)
        && (path.len() == canon.len()
            || canon.ends_with('/')
            || path.as_bytes()[canon.len()] == b'/')
}

/// Whether `path` is spelled as its components joined, as
/// `Path::components().collect::<PathBuf>()` spells it: no empty
/// component (`//`, a trailing `/` other than the root itself) and no
/// `.` component but a leading one (`./x`, which `Path` keeps). Exact,
/// on bytes. On a path so spelled, `Path`'s `Eq`, `Ord` and
/// `starts_with`, which compare components, agree with its bytes.
pub(crate) fn is_plain(path: &[u8]) -> bool {
    path == b"/"
        || path
            .split(|&b| b == b'/')
            .enumerate()
            .all(|(i, name)| i == 0 || !matches!(name, b"" | b"."))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATHS: &[&str] = &[
        "",
        "/",
        "//",
        "/a",
        "/a/",
        "/a/b",
        "/a//b",
        "/a/./b",
        "/a/b/.",
        "/a/..",
        "/a/../b",
        "a",
        "a/b",
        "./a",
        ".",
        "..",
        "../a",
        "/ab",
        "/a/.hidden",
        "/.a",
        "/./a",
        "a/",
        ".a/b",
    ];

    #[test]
    fn is_plain_is_components_collected() {
        let hostile = ["//a", "/a/./b", "/a/b/", "/.b", "/a/.b", "/.", ".//x", "././x", "./x"];
        for path in PATHS.iter().chain(&hostile) {
            let joined: std::path::PathBuf = Path::new(path).components().collect();
            assert_eq!(is_plain(path.as_bytes()), joined.as_os_str() == *path, "{path:?}");
        }
    }

    #[test]
    fn matches_is_path_starts_with_for_every_pair() {
        for prefix in PATHS {
            let prepared = PathPrefix::new(Path::new(prefix));
            for path in PATHS {
                assert_eq!(
                    prepared.matches(path),
                    Path::new(path).starts_with(prefix),
                    "path {path:?} under {prefix:?}"
                );
            }
        }
    }

    #[test]
    fn a_directory_class_never_misses_a_path_it_holds() {
        for prefix in PATHS {
            let prepared = PathPrefix::new(Path::new(prefix));
            for path in PATHS {
                let want = Path::new(path).starts_with(prefix);
                match prepared.classify(dir_of(path)) {
                    DirClass::All => assert!(want, "{path:?} filed as all under {prefix:?}"),
                    DirClass::None => assert!(!want, "{path:?} filed as none under {prefix:?}"),
                    DirClass::TestEach => {}
                }
            }
        }
    }

    #[test]
    fn a_canonical_prefix_is_borrowed() {
        let prefix = PathPrefix::new(Path::new("/data/run"));
        assert!(matches!(prefix.0, Form::Bytes { canon: Cow::Borrowed(_), parent: Some(5) }));
        assert!(matches!(PathPrefix::new(Path::new("")).0, Form::Any));
        assert!(matches!(PathPrefix::new(Path::new("/")).0, Form::Bytes { parent: None, .. }));
    }

    #[cfg(unix)]
    #[test]
    fn a_prefix_that_is_not_utf8_falls_back_to_components() {
        use std::os::unix::ffi::OsStrExt;
        let raw = Path::new(std::ffi::OsStr::from_bytes(b"/a/\xff"));
        let prefix = PathPrefix::new(raw).into_owned();
        assert!(!prefix.matches("/a/b"));
        assert_eq!(prefix.classify("/a"), DirClass::TestEach);
    }
}
