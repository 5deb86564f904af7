"""SVG renderings of certificates.

Exact geometry is computed elsewhere; here coordinates are projected to
floats purely for drawing.  Convention: 1 field unit = 200 SVG user
units, origin at the lower-left corner of F, y pointing up.  Colors and
styling are non-contractual.
"""
from __future__ import annotations

import math

from .covering import CoverCertificate
from .disks import DiskCertificate, ExceptionalBundle
from .field import QuadField, make_field
from .witness import WitnessCertificate

SCALE = 200.0
MARGIN = 1.25  # field units around F, enough for the radius-1 corner disks

__all__ = ["render_certificate", "render_cover", "render_disks", "render_witness"]


class _Canvas:
    def __init__(self, fld: QuadField) -> None:
        self.wx = 0.5 if fld.half_basis else 0.0
        self.wy = math.sqrt(fld.D) / 2.0
        self.minx = -MARGIN
        self.maxx = 1.0 + self.wx + MARGIN
        self.miny = -MARGIN
        self.maxy = self.wy + MARGIN
        self.parts: list[str] = []

    def px(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.minx) * SCALE, (self.maxy - y) * SCALE)

    def point(self, u: float, v: float) -> tuple[float, float]:
        """Basis coordinates (u, v) -> complex-plane coordinates."""
        return (u + v * self.wx, v * self.wy)

    def polygon(self, pts_uv: list[tuple[float, float]], style: str) -> None:
        coords = " ".join(
            "{:.3f},{:.3f}".format(*self.px(*self.point(u, v))) for u, v in pts_uv
        )
        self.parts.append(f'<polygon points="{coords}" style="{style}"/>')

    def circle(self, u: float, v: float, r: float, style: str) -> None:
        cx, cy = self.px(*self.point(u, v))
        self.parts.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r * SCALE:.3f}" style="{style}"/>'
        )

    def line(self, a_uv: tuple[float, float], b_uv: tuple[float, float], style: str) -> None:
        x1, y1 = self.px(*self.point(*a_uv))
        x2, y2 = self.px(*self.point(*b_uv))
        self.parts.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" style="{style}"/>'
        )

    def text(self, u: float, v: float, content: str) -> None:
        x, y = self.px(*self.point(u, v))
        self.parts.append(
            f'<text x="{x:.3f}" y="{y:.3f}" font-size="24" font-family="sans-serif">{content}</text>'
        )

    def fundamental_domain(self) -> None:
        self.polygon(
            [(0, 0), (1, 0), (1, 1), (0, 1)],
            "fill:none;stroke:black;stroke-width:2",
        )

    def to_svg(self) -> str:
        width = (self.maxx - self.minx) * SCALE
        height = (self.maxy - self.miny) * SCALE
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.3f} {height:.3f}">\n'
            f"{body}\n</svg>\n"
        )


_DISK_STYLE = "fill:#4477aa;fill-opacity:0.25;stroke:#4477aa;stroke-width:1.5"
_BOOST_STYLE = "fill:#aa3377;fill-opacity:0.25;stroke:#aa3377;stroke-width:1.5"
_STRIP_STYLE = "fill:#ccbb44;fill-opacity:0.30;stroke:none"


def render_cover(cert: CoverCertificate) -> str:
    """F plus the strips R_j^k of the certificate chain and the disks
    B_{1/k}((i + j*w)/k) generating them."""
    fld = make_field(cert.d)
    canvas = _Canvas(fld)
    width = math.sqrt(3.0 / fld.D)
    for j, k in cert.chain:
        v_lo = max(0.0, (j - width) / k)
        v_hi = min(1.0, (j + width) / k)
        if v_hi > v_lo:
            canvas.polygon(
                [(0, v_lo), (1, v_lo), (1, v_hi), (0, v_hi)], _STRIP_STYLE
            )
    for j, k in cert.chain:
        for i in range(k + 1):
            canvas.circle(i / k, j / k, 1.0 / k, _DISK_STYLE)
    canvas.fundamental_domain()
    canvas.text(0.02, 1.04, f"d={cert.d}, S={cert.s}, k_max={cert.k_max}")
    return canvas.to_svg()


def render_disks(cert: DiskCertificate) -> str:
    fld = make_field(cert.d)
    canvas = _Canvas(fld)
    for disk in cert.disks:
        u = disk.center.a / disk.center.c
        v = disk.center.b / disk.center.c
        canvas.circle(u, v, math.sqrt(float(disk.r_squared)), _BOOST_STYLE if disk.boosted else _DISK_STYLE)
    canvas.fundamental_domain()
    canvas.text(0.02, 1.04, f"d={cert.d}, S={cert.s}, {len(cert.disks)} disks")
    return canvas.to_svg()


def render_witness(cert: WitnessCertificate) -> str:
    fld = make_field(cert.d)
    canvas = _Canvas(fld)
    canvas.fundamental_domain()
    u = cert.xi0.a / cert.xi0.c
    v = cert.xi0.b / cert.xi0.c
    canvas.circle(u, v, 0.02, "fill:#ee6677;stroke:none")
    canvas.text(u + 0.04, v, f"xi0, bound {cert.bound}")
    canvas.text(0.02, 1.04, f"d={cert.d}, p={cert.p}: not norm-Euclidean")
    return canvas.to_svg()


def render_bundle(bundle: ExceptionalBundle) -> str:
    fld = make_field(bundle.d)
    canvas = _Canvas(fld)
    canvas.fundamental_domain()
    for line in bundle.gap_lines:
        v = float(line.y0)
        canvas.line((0.0, v), (1.0, v), "stroke:#ee6677;stroke-width:2;stroke-dasharray:8 4")
        canvas.text(1.03, v, f"gap line y={line.y0}")
    canvas.text(0.02, 1.04, f"d={bundle.d}, p={bundle.p}: exceptional cover")
    return canvas.to_svg()


def render_certificate(cert) -> str:
    if isinstance(cert, CoverCertificate):
        return render_cover(cert)
    if isinstance(cert, DiskCertificate):
        return render_disks(cert)
    if isinstance(cert, WitnessCertificate):
        return render_witness(cert)
    if isinstance(cert, ExceptionalBundle):
        return render_bundle(cert)
    raise TypeError(f"cannot render {type(cert).__name__}")
