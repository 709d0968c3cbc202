type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: lo=%d > hi=%d" lo hi);
  { lo; hi }

let lo t = t.lo
let hi t = t.hi
let sum a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }

let affine ~mul ~add t =
  if mul >= 0 then { lo = (mul * t.lo) + add; hi = (mul * t.hi) + add }
  else { lo = (mul * t.hi) + add; hi = (mul * t.lo) + add }
