"""Row-by-row CSV writers: the loop versions of ``write_trajectory_csv``,
``write_sweep_csv`` and ``write_roa_csv``, which format the whole body in
one ``%`` and write it once. Each formats and writes one row at a time
with the same row formats, so the one-pass writers must give the same
bytes. They return the text instead of writing a file.
"""

import numpy as np

NUM, EMPTY = "%.17g,", "%.0s,"


def trajectory_csv(traj) -> str:
    n_rows, n = traj.states.shape
    n_inputs, m = traj.inputs.shape
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"u{j + 1}" for j in range(m)] + ["V", "lambda", "flags"])
    U = np.full((n_rows, m), np.nan)
    U[:n_inputs] = traj.inputs[:n_rows]
    lam = np.full(n_rows, np.nan)
    if traj.lambdas is not None:
        lam[:len(traj.lambdas)] = traj.lambdas[:n_rows]
    columns = [traj.times, traj.states, U]
    if traj.clf_values is not None:
        columns.append(traj.clf_values)
    rows = np.column_stack(columns + [lam]).tolist()
    has_lam = np.isfinite(lam).tolist()
    flags = traj.flags[:n_rows] + [""] * (n_rows - len(traj.flags))
    v_field = NUM if traj.clf_values is not None else ","
    fmt = {(with_u, with_lam): (NUM * (1 + n) + (NUM if with_u else EMPTY) * m + v_field
                                + (NUM if with_lam else EMPTY) + "%s\n")
           for with_u in (True, False) for with_lam in (True, False)}
    out = [",".join(header) + "\n"]
    for k, row in enumerate(rows):
        out.append(fmt[k < n_inputs, has_lam[k]] % (*row, flags[k]))
    return "".join(out)


def sweep_csv(result) -> str:
    header = ("theta0_deg,J_sontag,J_lqr,J_fbl,ratio_lqr,ratio_fbl,"
              "stab_sontag,stab_lqr,stab_fbl")
    rows = np.column_stack([result.theta0_deg, result.j_sontag, result.j_lqr, result.j_fbl,
                            result.ratio_lqr, result.ratio_fbl, result.stab_sontag,
                            result.stab_lqr, result.stab_fbl]).tolist()
    lqr_ok = (~np.isnan(result.ratio_lqr)).tolist()
    fbl_ok = (~np.isnan(result.ratio_fbl)).tolist()
    fmt = {(ok_l, ok_f): (NUM * 4 + (NUM if ok_l else EMPTY) + (NUM if ok_f else EMPTY)
                          + "%d,%d,%d\n")
           for ok_l in (True, False) for ok_f in (True, False)}
    out = [header + "\n"]
    for row, ok_l, ok_f in zip(rows, lqr_ok, fbl_ok):
        out.append(fmt[ok_l, ok_f] % tuple(row))
    return "".join(out)


def roa_csv(cert) -> str:
    n = cert.points.shape[1]
    header = [f"x{i + 1}" for i in range(n)] + ["V", "member_lqr", "member_sontag"]
    rows = np.column_stack([cert.points, cert.values, cert.members_lqr,
                            cert.members_sontag]).tolist()
    fmt = NUM * (n + 1) + "%d,%d\n"
    out = [",".join(header) + "\n"]
    for row in rows:
        out.append(fmt % tuple(row))
    return "".join(out)
