type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: lo=%d > hi=%d" lo hi);
  { lo; hi }

let lo t = t.lo
let hi t = t.hi
let length t = t.hi - t.lo + 1
let mem x t = t.lo <= x && x <= t.hi
let contains outer inner = outer.lo <= inner.lo && inner.hi <= outer.hi
let intersects a b = a.lo <= b.hi && b.lo <= a.hi

let inter a b =
  if intersects a b then Some { lo = max a.lo b.lo; hi = min a.hi b.hi }
  else None

let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }
let sum a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }

let affine ~mul ~add t =
  if mul >= 0 then { lo = (mul * t.lo) + add; hi = (mul * t.hi) + add }
  else { lo = (mul * t.hi) + add; hi = (mul * t.lo) + add }

let equal a b = a.lo = b.lo && a.hi = b.hi
let pp ppf t = Format.fprintf ppf "[%d, %d]" t.lo t.hi
let to_string t = Format.asprintf "%a" pp t
