! A six-loop workload for exercising the --jobs worker pool: every loop
! is independent and all-safe (each iteration reads and writes only its
! own slot, so each adjoint hits only its own slot too), and the
! analysis is embarrassingly parallel across loops — the CI case for
! `--jobs` (docs/SCALING.md). Its loops are tiny, so the pool's worker
! start-up costs more than it saves here; `--jobs` pays off when loops
! take seconds, and crash containment is its other use.
!
!   repro analyze examples/multiloop.f90 -i x -o a,b,c,d,e,f \
!       --jobs 4 --cache-dir .repro-cache
subroutine multiloop(x, a, b, c, d, e, f, n)
  real, intent(in) :: x(1000)
  real, intent(out) :: a(1000)
  real, intent(out) :: b(1000)
  real, intent(out) :: c(1000)
  real, intent(out) :: d(1000)
  real, intent(out) :: e(1000)
  real, intent(out) :: f(1000)
  integer, intent(in) :: n
  !$omp parallel do
  do i = 1, n
    a(i) = x(i) * 2.0 + x(i) * x(i)
  end do
  !$omp parallel do
  do j = 1, n
    b(j) = x(j) * x(j) - x(j) * 0.5
  end do
  !$omp parallel do
  do k = 1, n
    c(k) = x(k) * x(k) * x(k) + 1.0
  end do
  !$omp parallel do
  do l = 1, n
    d(l) = x(l) + x(l) * 3.0
  end do
  !$omp parallel do
  do m = 1, n
    e(m) = x(m) * 3.0 - x(m) * x(m)
  end do
  !$omp parallel do
  do p = 1, n
    f(p) = x(p) * 0.25 + x(p) * 4.0
  end do
end subroutine multiloop
