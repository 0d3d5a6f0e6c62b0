! resilience_demo — two independent all-safe parallel loops, used by the
! CI resilience smoke job and docs/RESILIENCE.md. Because every adjoint
! update touches only its own slot, the analysis proves both loops safe
! without SAT early-breaks, so question counts are identical across
! every resilience configuration (deadline, worker pool, recovery).
!
! Try crash recovery from the --cache-dir store on the crash-containing
! one-worker pool (--jobs 1):
!   python -m repro analyze examples/resilience_demo.f90 -i x -o y,z \
!     --jobs 1 --cache-dir vcache
!   kill -9 <pid>   # at any point
!   python -m repro analyze examples/resilience_demo.f90 -i x -o y,z \
!     --jobs 1 --cache-dir vcache
subroutine resilience_demo(x, y, z, n)
  real, intent(in) :: x(1000)
  real, intent(out) :: y(1000)
  real, intent(out) :: z(1000)
  integer, intent(in) :: n
  integer :: i
  integer :: j

  !$omp parallel do
  do i = 1, n
    y(i) = x(i) * 2.0
  end do
  !$omp parallel do
  do j = 1, n
    z(j) = x(j) + 1.0
  end do
end subroutine resilience_demo
