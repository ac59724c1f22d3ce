"""Machine-readable evaluation reports.

Rationals are always emitted as reduced {"num", "den"} integer pairs; the
JSON text is byte-stable for identical inputs and flags.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import bounds as bounds_mod
from . import criteria
from .design_core import Design


def _rat(x: Fraction | None):
    if x is None:
        return None
    return {"num": x.numerator, "den": x.denominator}


def build_report(D: Design, gwlp_jmax: int | None = None) -> dict:
    """Full evaluation of a design: criteria, histogram, bounds, flags."""
    rep = criteria.aggregate_stats(D, gwlp_jmax=gwlp_jmax)
    cert = bounds_mod.certify(rep)
    hist = [{"value": _rat(v), "count": c} for v, c in rep.histogram.items()]
    out = {
        "N": rep.N,
        "m": rep.m,
        "levels": list(rep.levels),
        "A2": _rat(rep.A2),
        "projected_A2_histogram": hist,
        "ave_chi2": _rat(rep.ave_chi2),
        "max_chi2": _rat(rep.max_chi2),
        "ave_f": _rat(rep.ave_f),
        "max_f": _rat(rep.max_f),
        "ave_f_2dp": criteria.round_half_away(rep.ave_f),
        "ave_chi2_2dp": criteria.round_half_away(rep.ave_chi2),
        "E_d2": _rat(rep.E_d2),
        "max_d2": _rat(rep.max_d2),
        "gwlp": [float(a) for a in rep.gwlp],
        "E_s2": _rat(rep.E_s2),
        "bounds": {
            "theorem1": _rat(cert.theorem1),
            "theorem1_raw": _rat(cert.theorem1_raw),
            "lemma2": _rat(cert.lemma2),
            "theorem10": _rat(cert.theorem10),
            "eq1_es2": _rat(cert.eq1_es2),
            "achieved_theorem1": cert.achieved_theorem1,
            "achieved_theorem10": cert.achieved_theorem10,
            "achieved_es2": cert.achieved_es2,
            "coincidence_spread": cert.coincidence_spread,
            "supersaturated": cert.supersaturated,
        },
        "achieves_theorem1": cert.achieved_theorem1,
    }
    return out


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def fmt_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def report_to_text(report: dict) -> str:
    """Human-readable summary mirroring the catalog tables (value: count)."""
    lines = []
    levels = report["levels"]
    if len(set(levels)) == 1:
        profile = f"{levels[0]}^{report['m']}"
    else:
        profile = " ".join(map(str, levels))
    lines.append(f"design: {report['N']} runs, levels {profile}")
    a2 = Fraction(report["A2"]["num"], report["A2"]["den"])
    lines.append(f"overall A2 = {fmt_frac(a2)}")
    lines.append("projected A2 histogram:")
    for item in report["projected_A2_histogram"]:
        v = Fraction(item["value"]["num"], item["value"]["den"])
        lines.append(f"  {fmt_frac(v)}: {item['count']}")
    for key in ("ave_chi2", "max_chi2", "ave_f", "max_f", "E_d2", "max_d2"):
        v = Fraction(report[key]["num"], report[key]["den"])
        lines.append(f"{key} = {fmt_frac(v)} ({float(v):.4f})")
    lines.append("gwlp prefix: "
                 + ", ".join(f"A{i + 1} = {a:.6g}"
                             for i, a in enumerate(report["gwlp"])))
    if report["E_s2"] is not None:
        es2 = Fraction(report["E_s2"]["num"], report["E_s2"]["den"])
        lines.append(f"E(s^2) = {fmt_frac(es2)}")
    b = report["bounds"]
    if b["theorem1"] is not None:
        t1 = Fraction(b["theorem1"]["num"], b["theorem1"]["den"])
        lines.append(f"bound (equal levels) = {fmt_frac(t1)}, "
                     f"achieved = {b['achieved_theorem1']}")
    t10 = Fraction(b["theorem10"]["num"], b["theorem10"]["den"])
    lines.append(f"bound (level profile) = {fmt_frac(t10)}, "
                 f"achieved = {b['achieved_theorem10']}")
    lines.append(f"coincidence spread = {b['coincidence_spread']}")
    return "\n".join(lines) + "\n"
