c$acfd grid(m)
c$acfd status(u)
      program t
      parameter (m = 12)
      real u(m)
      real scale
      integer i
      read(*,*) scale
      do i = 1, m
        u(i) = scale * float(i)
      end do
      do i = 2, m - 1
        u(i) = u(i) + 0.5 * (u(i-1) + u(i+1))
      end do
      write(*,*) u(m/2)
      end
