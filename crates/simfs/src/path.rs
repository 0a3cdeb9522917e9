//! Absolute-path helpers.
//!
//! `SimFs` names objects by absolute paths ("/a/b/c"). These helpers
//! vet and normalise caller input without touching the real filesystem,
//! and copy a path only when its spelling holds a `..`.

use crate::FsError;
use std::borrow::Cow;
use std::path::{Component, Path, PathBuf};

/// Normalizes `path` to an absolute path with no `.`/`..` components.
///
/// `..` at the root stays at the root, as in POSIX.
///
/// # Errors
///
/// Returns [`FsError::InvalidPath`] for relative paths or paths with
/// non-UTF8-representable prefixes (Windows prefixes).
///
/// # Example
///
/// ```
/// use simfs::normalize_path;
/// use std::path::PathBuf;
///
/// assert_eq!(normalize_path("/a/./b/../c")?, PathBuf::from("/a/c"));
/// assert_eq!(normalize_path("/../x")?, PathBuf::from("/x"));
/// assert!(normalize_path("relative/path").is_err());
/// # Ok::<(), simfs::FsError>(())
/// ```
pub fn normalize_path(path: impl AsRef<Path>) -> Result<PathBuf, FsError> {
    let path = path.as_ref();
    let mut components = path.components();
    if components.next() != Some(Component::RootDir)
        || components.any(|c| matches!(c, Component::RootDir | Component::Prefix(_)))
    {
        return Err(FsError::InvalidPath(path.to_path_buf()));
    }
    Ok(normalized(path))
}

/// What [`normalize_path`] returns for a path it accepts: the names
/// under the root, `.` dropped and `..` applied lexically. Errors name
/// a path this way, so only a failing or observed operation builds it.
pub(crate) fn normalized(path: &Path) -> PathBuf {
    let mut out = PathBuf::from("/");
    for comp in path.components() {
        match comp {
            Component::Normal(name) => out.push(name),
            Component::ParentDir => {
                out.pop();
            }
            Component::RootDir | Component::CurDir | Component::Prefix(_) => {}
        }
    }
    out
}

/// `path` as a walk reads it: the caller's own bytes when it is
/// absolute and names no `..` (`Path::components` already skips `.` and
/// repeated or trailing separators), a normalised copy when it does, so
/// `..` stays lexical. Its `Normal` components are the names to descend
/// through, in order.
///
/// # Errors
///
/// [`FsError::InvalidPath`] as [`normalize_path`] reports it.
///
/// # Example
///
/// ```
/// use simfs::walkable;
/// use std::borrow::Cow;
/// use std::path::Path;
///
/// assert!(matches!(walkable(Path::new("/a/./b//c/"))?, Cow::Borrowed(_)));
/// assert_eq!(walkable(Path::new("/a/x/../c"))?, Path::new("/a/c"));
/// assert!(walkable(Path::new("a/b")).is_err());
/// # Ok::<(), simfs::FsError>(())
/// ```
pub fn walkable(path: &Path) -> Result<Cow<'_, Path>, FsError> {
    let mut components = path.components();
    if components.next() != Some(Component::RootDir) {
        return Err(FsError::InvalidPath(path.to_path_buf()));
    }
    if components.all(|c| matches!(c, Component::Normal(_))) {
        Ok(Cow::Borrowed(path))
    } else {
        normalize_path(path).map(Cow::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_removes_dots() {
        assert_eq!(normalize_path("/a/b/./c").unwrap(), PathBuf::from("/a/b/c"));
        assert_eq!(normalize_path("/a/b/../c").unwrap(), PathBuf::from("/a/c"));
        assert_eq!(normalize_path("/").unwrap(), PathBuf::from("/"));
        assert_eq!(normalize_path("/..").unwrap(), PathBuf::from("/"));
    }

    #[test]
    fn normalize_rejects_relative() {
        assert!(matches!(normalize_path("a/b"), Err(FsError::InvalidPath(_))));
        assert!(matches!(normalize_path(""), Err(FsError::InvalidPath(_))));
    }
}
