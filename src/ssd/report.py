"""Evaluation reports: one exact report, encoded as text or as JSON.

`build_report` returns a design's criteria and bound certificate, every
number an exact Fraction.  The text encoder prints each with `str`; the JSON
encoder emits each as a reduced {"num", "den"} integer pair, and its text is
byte-stable for identical inputs and flags.
"""

from __future__ import annotations

from fractions import Fraction

from . import bounds as bounds_mod
from . import criteria
from .design_core import Design, level_profile

Report = tuple[criteria.CriteriaReport, bounds_mod.BoundReport]


def build_report(D: Design, gwlp_jmax: int | None = None) -> Report:
    """Full evaluation of a design: its criteria and their bounds."""
    rep = criteria.aggregate_stats(D, gwlp_jmax=gwlp_jmax)
    return rep, bounds_mod.certify(rep)


_JSON_LITERAL = {True: "true", False: "false", None: "null"}


def _rat(x: Fraction | None, pad: str) -> str:
    """A rational as a JSON {"num", "den"} object whose key line is
    indented by pad, or null."""
    if x is None:
        return "null"
    return (f'{{\n{pad}  "num": {x.numerator},\n'
            f'{pad}  "den": {x.denominator}\n{pad}}}')


def report_to_json(report: Report) -> str:
    """The report as JSON, written in one formatting pass over its fixed
    schema.  The text is json.dumps(obj, indent=2) + "\n" for the object
    obj it decodes to, the reference the tests hold it to."""
    rep, cert = report
    lit = _JSON_LITERAL
    levels = ",\n    ".join(map(str, rep.levels))
    gwlp = ",\n    ".join(repr(float(a)) for a in rep.gwlp)
    hist = ",\n".join(f'    {{\n      "value": {_rat(v, "      ")},\n'
                      f'      "count": {c}\n    }}'
                      for v, c in rep.histogram.items())
    return f"""{{
  "N": {rep.N},
  "m": {rep.m},
  "levels": [
    {levels}
  ],
  "A2": {_rat(rep.A2, "  ")},
  "projected_A2_histogram": [
{hist}
  ],
  "ave_chi2": {_rat(rep.ave_chi2, "  ")},
  "max_chi2": {_rat(rep.max_chi2, "  ")},
  "ave_f": {_rat(rep.ave_f, "  ")},
  "max_f": {_rat(rep.max_f, "  ")},
  "ave_f_2dp": {criteria.round_half_away(rep.ave_f)!r},
  "ave_chi2_2dp": {criteria.round_half_away(rep.ave_chi2)!r},
  "E_d2": {_rat(rep.E_d2, "  ")},
  "max_d2": {_rat(rep.max_d2, "  ")},
  "gwlp": [
    {gwlp}
  ],
  "E_s2": {_rat(rep.E_s2, "  ")},
  "bounds": {{
    "theorem1": {_rat(cert.theorem1, "    ")},
    "theorem1_raw": {_rat(cert.theorem1_raw, "    ")},
    "lemma2": {_rat(cert.lemma2, "    ")},
    "theorem10": {_rat(cert.theorem10, "    ")},
    "eq1_es2": {_rat(cert.eq1_es2, "    ")},
    "achieved_theorem1": {lit[cert.achieved_theorem1]},
    "achieved_theorem10": {lit[cert.achieved_theorem10]},
    "achieved_es2": {lit[cert.achieved_es2]},
    "coincidence_spread": {cert.coincidence_spread},
    "supersaturated": {lit[cert.supersaturated]}
  }},
  "achieves_theorem1": {lit[cert.achieved_theorem1]}
}}
"""


def report_to_text(report: Report) -> str:
    """Human-readable summary mirroring the catalog tables (value: count)."""
    rep, cert = report
    lines = [f"design: {rep.N} runs, levels {level_profile(rep.levels)}",
             f"overall A2 = {rep.A2}",
             "projected A2 histogram:"]
    lines += [f"  {v}: {c}" for v, c in rep.histogram.items()]
    for key in ("ave_chi2", "max_chi2", "ave_f", "max_f", "E_d2", "max_d2"):
        v = getattr(rep, key)
        lines.append(f"{key} = {v} ({float(v):.4f})")
    lines.append("gwlp prefix: "
                 + ", ".join(f"A{i + 1} = {float(a):.6g}"
                             for i, a in enumerate(rep.gwlp)))
    if rep.E_s2 is not None:
        lines.append(f"E(s^2) = {rep.E_s2}")
    if cert.theorem1 is not None:
        lines.append(f"bound (equal levels) = {cert.theorem1}, "
                     f"achieved = {cert.achieved_theorem1}")
    lines.append(f"bound (level profile) = {cert.theorem10}, "
                 f"achieved = {cert.achieved_theorem10}")
    lines.append(f"coincidence spread = {cert.coincidence_spread}")
    return "\n".join(lines) + "\n"
