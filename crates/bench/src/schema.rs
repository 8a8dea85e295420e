//! Dotted-path lookup over JSON run reports: what
//! `points.0.paths.ilp.mbps` means to the gate. A path is
//! dot-separated; numeric segments index into arrays.

use obs::Json;

/// Walk a dotted path; `None` when a segment is missing or a non-leaf
/// value is scalar. Numeric segments step into arrays.
pub fn walk<'a>(mut j: &'a Json, path: &str) -> Option<&'a Json> {
    for seg in path.split('.') {
        j = match j {
            Json::Obj(_) => j.get(seg)?,
            Json::Arr(v) => v.get(seg.parse::<usize>().ok()?)?,
            _ => return None,
        };
    }
    Some(j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_steps_through_objects_and_arrays() {
        let d = Json::obj()
            .set("n", Json::U64(7))
            .set("points", Json::Arr(vec![Json::obj().set("mbps", Json::F64(3.5))]));
        assert_eq!(walk(&d, "points.0.mbps"), Some(&Json::F64(3.5)));
        assert_eq!(walk(&d, "points.1.mbps"), None, "index out of range");
        assert_eq!(walk(&d, "points.x"), None, "non-numeric array index");
        assert_eq!(walk(&d, "n.deeper"), None, "cannot step into a scalar");
    }
}
