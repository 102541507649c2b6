"""Seeded synthetic corpora: the three input CSVs of a trustprop run.

The tables are written with the ``csv`` module, independently of the
package's own serializer, and only ``random.Random.random()`` is drawn from,
the one stream the standard library promises to keep across versions. The
same shape and seed therefore give the same bytes.

Two shapes exist:

* ``paper``: the funnel of the paper's data set. About half of the raw
  doctors are unverified, unclaimed or miss a required field, and about 10%
  of the hospitals carry no rating, so ``clean`` drops them. Every kept
  doctor has at least one rated hospital, so no drop cascades into the kept
  doctors and their number is fixed by the shape, not by the seed.
* ``dense``: few hospitals and departments relative to the doctors. Doctors
  crowd into the same hospitals, so the doctor block is roughly an eighth
  full and the hospital block nearly full.

Some department cells carry ``id:weight`` overrides, some memberships are
declared on one side only, and some doctors have no like percentage, so the
override, symmetrisation and unrated paths of the package all run.

Run ``python3 bench/corpus.py --shape paper --doctors 2000 --seed 1 --out DIR``
to write a corpus by hand.
"""
from __future__ import annotations

import argparse
import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

DOCTOR_HEADER = ("id", "name", "hospital_ids", "department_ids", "qualification_score",
                 "overall_experience_years", "specialist_experience_years", "like_pct",
                 "vote_count", "review_count", "verified", "claimed")
HOSPITAL_HEADER = ("id", "name", "rating", "stories_count", "accreditation",
                   "location_category", "department_ids")
DEPARTMENT_HEADER = ("id", "name", "doctor_ids", "hospital_ids")

#: why a raw doctor is dropped by ``clean``, assigned round-robin
DROP_REASONS = ("unverified", "unclaimed", "no_qualification", "no_experience",
                "no_hospital", "no_department")


@dataclass(frozen=True)
class Shape:
    """Proportions of a corpus; sizes scale with the raw doctor count."""

    hospitals_per_doctor: float
    departments_per_doctor: float
    #: share of raw doctors that ``clean`` must drop
    drop_share: float
    #: share of hospitals without a rating
    unrated_share: float
    #: (min, max) hospitals a doctor works at
    doctor_hospitals: tuple[int, int]
    #: (min, max) departments a doctor belongs to
    doctor_departments: tuple[int, int]
    #: (min, max) hospitals a department is declared at
    department_hospitals: tuple[int, int]


SHAPES = {
    "paper": Shape(hospitals_per_doctor=0.129, departments_per_doctor=0.43, drop_share=0.53,
                   unrated_share=0.10, doctor_hospitals=(1, 3), doctor_departments=(1, 2),
                   department_hospitals=(1, 2)),
    "dense": Shape(hospitals_per_doctor=0.01, departments_per_doctor=0.02, drop_share=0.557,
                   unrated_share=0.20, doctor_hospitals=(1, 3), doctor_departments=(1, 3),
                   department_hospitals=(6, 14)),
}


class _Draw:
    """Integer and choice helpers built on ``Random.random()`` alone."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def unit(self) -> float:
        return self._rng.random()

    def below(self, n: int) -> int:
        return min(int(self._rng.random() * n), n - 1)

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def pick(self, items: list, k: int) -> list:
        """k distinct items, in the order drawn (partial Fisher-Yates)."""
        pool = list(items)
        k = min(k, len(pool))
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def _ids(prefix: str, n: int) -> list[str]:
    width = len(str(max(n, 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(1, n + 1)]


def _cell(ids, weights: dict[str, float] | None = None) -> str:
    parts = []
    for ident in ids:
        if weights and ident in weights:
            parts.append(f"{ident}:{weights[ident]:g}")
        else:
            parts.append(ident)
    return ";".join(parts)


def generate(shape_name: str, doctors: int, seed: int, out_dir) -> dict:
    """Write doctors.csv, hospitals.csv and departments.csv into ``out_dir``.

    Returns what ``clean`` must keep: the sorted ids of the kept doctors and
    the rated hospitals, plus the raw counts.
    """
    shape = SHAPES[shape_name]
    draw = _Draw(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    n_h = max(2, round(doctors * shape.hospitals_per_doctor))
    n_d = max(2, round(doctors * shape.departments_per_doctor))
    hospital_ids = _ids("H", n_h)
    department_ids = _ids("D", n_d)
    doctor_ids = _ids("P", doctors)

    unrated = set(draw.pick(hospital_ids, round(n_h * shape.unrated_share)))
    rated = [h for h in hospital_ids if h not in unrated]

    # departments sit at a few hospitals; both sides declare most of these links
    dept_hospitals = {d: draw.pick(hospital_ids, draw.between(*shape.department_hospitals))
                      for d in department_ids}
    hospital_depts: dict[str, list[str]] = {h: [] for h in hospital_ids}
    for d in department_ids:
        for h in dept_hospitals[d]:
            hospital_depts[h].append(d)

    dropped = draw.pick(doctor_ids, round(doctors * shape.drop_share))
    reason = {p: DROP_REASONS[i % len(DROP_REASONS)] for i, p in enumerate(dropped)}

    doctor_rows = []
    members: dict[str, list[str]] = {d: [] for d in department_ids}
    for p in doctor_ids:
        why = reason.get(p)
        # the first hospital is rated, so a kept doctor never loses all of them
        first = rated[draw.below(len(rated))]
        others = draw.pick(hospital_ids, draw.between(*shape.doctor_hospitals) - 1)
        hospitals = [first] + [h for h in others if h != first]
        nearby = sorted({d for h in hospitals for d in hospital_depts[h]})
        depts = draw.pick(nearby or department_ids, draw.between(*shape.doctor_departments))
        if why == "no_hospital":
            hospitals = []
        if why == "no_department":
            depts = []
        for d in depts:
            members[d].append(p)
        overall = draw.between(1, 40)
        rated_doctor = draw.unit() >= 0.05
        doctor_rows.append([
            p, f"Doctor {p}", _cell(hospitals), _cell(depts),
            "" if why == "no_qualification" else str(draw.between(1, 10)),
            "" if why == "no_experience" else str(overall),
            str(draw.between(0, overall)),
            str(draw.between(40, 100)) if rated_doctor else "",
            str(draw.between(0, 400)), str(draw.between(0, 150)),
            "false" if why == "unverified" else "true",
            "false" if why == "unclaimed" else "true",
        ])

    hospital_rows = []
    for i, h in enumerate(hospital_ids):
        # a fifth of the hospital-side declarations are left to the department side
        declared = [d for d in hospital_depts[h] if draw.unit() >= 0.2]
        rating = "" if h in unrated else f"{1.0 + 4.0 * draw.unit():.1f}"
        hospital_rows.append([
            h, f"Hospital {h}", rating, str(draw.between(0, 12)),
            ("NABH", "JCI", "")[i % 3], ("urban", "suburban", "rural")[draw.below(3)],
            _cell(sorted(declared)),
        ])

    department_rows = []
    for d in department_ids:
        doctor_side = sorted(p for p in members[d] if draw.unit() >= 0.2)
        doctor_weights = {p: draw.between(1, 12) for p in doctor_side if draw.unit() < 0.1}
        hospital_side = sorted(dept_hospitals[d])
        hospital_weights = {h: draw.between(1, 6) for h in hospital_side if draw.unit() < 0.1}
        department_rows.append([
            d, f"Department {d}", _cell(doctor_side, doctor_weights),
            _cell(hospital_side, hospital_weights),
        ])

    for name, header, rows in (("doctors.csv", DOCTOR_HEADER, doctor_rows),
                               ("hospitals.csv", HOSPITAL_HEADER, hospital_rows),
                               ("departments.csv", DEPARTMENT_HEADER, department_rows)):
        with open(out / name, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    return {
        "raw": {"doctors": doctors, "hospitals": n_h, "departments": n_d},
        "kept_doctors": sorted(p for p in doctor_ids if p not in reason),
        "rated_hospitals": rated,
    }


def write_config(out_dir, stress_method: str, stress_seeds: list[int],
                 similarity_mode: str = "intersection_count") -> Path:
    """The demo run config (constant residuals, three scenarios) for a corpus."""
    config = {
        "schema_version": 1,
        "inputs": {"doctors": "doctors.csv", "hospitals": "hospitals.csv",
                   "departments": "departments.csv"},
        "out_dir": "out",
        "similarity_mode": similarity_mode,
        "residual": {layer: {"distribution": "constant", "value": 0.2}
                     for layer in ("hospital", "department", "doctor")},
        "convergence": {"epsilon": 0.001, "max_iterations": 1000, "norm": "max_abs"},
        "damping": 1.0,
        "department_feed": "hospital",
        "evaluation": {"ks": {"hospital": [3], "department": [3], "doctor": [3]},
                       "scenarios": ["uniform", "normal", "skewed"]},
        "stress": {"method": stress_method, "concentration": 1000.0, "seeds": stress_seeds},
        "seed": 7,
    }
    path = Path(out_dir) / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default="paper")
    parser.add_argument("--doctors", type=int, default=2000, help="raw doctor rows")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    expected = generate(args.shape, args.doctors, args.seed, args.out)
    print(json.dumps({"raw": expected["raw"], "kept_doctors": len(expected["kept_doctors"])}))


if __name__ == "__main__":
    main()
