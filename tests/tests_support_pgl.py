"""Shared helpers for PGL configuration tests."""

from charpgeom import picard
from charpgeom.algebra.multipoly import det
from charpgeom.algebra.linalg import mat_vec


def random_config(fld, n_pts, rng, N=1):
    """Random configuration whose first N+2 points are a projective frame."""
    while True:
        pts = []
        for _ in range(n_pts):
            vec = tuple(fld.from_index(rng.randrange(fld.order))
                        for _ in range(N + 1))
            if any(vec):
                pts.append(vec)
        if len(pts) < n_pts:
            continue
        cfg = picard.PointConfig(fld, pts)
        if picard.in_general_position(fld, cfg.points[:N + 2]) is None:
            return cfg


def random_pgl(fld, N, rng):
    while True:
        mat = [[fld.from_index(rng.randrange(fld.order))
                for _ in range(N + 1)] for _ in range(N + 1)]
        if det(mat, fld):
            return mat


def apply_pgl(fld, mat, cfg):
    pts = [mat_vec(mat, pt, fld) for pt in cfg.points]
    return picard.PointConfig(fld, pts)
