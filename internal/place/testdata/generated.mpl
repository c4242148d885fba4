program genlarge_1

var a, c, tmp, j, i0, i1, i2

proc {
    a = rank + 1
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 2 {
            i2 = 0
            while i2 < 2 {
                if rank == nproc - 1 {
                    send(0, a)
                }
                chkpt
                if rank == 0 {
                    recv(nproc - 1, tmp)
                    a = a + tmp
                }
                work(3)
                if rank % 2 == 0 {
                    chkpt
                    send(rank + 1, a)
                    recv(rank + 1, tmp)
                } else {
                    recv(rank - 1, tmp)
                    chkpt
                    send(rank - 1, a)
                }
                a = a + tmp
                work(2)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(3)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 2 {
            chkpt
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            chkpt
            work(1)
            if rank % 2 == 0 {
                chkpt
                send(rank + 1, a)
                recv(rank + 1, tmp)
            } else {
                recv(rank - 1, tmp)
                send(rank - 1, a)
                chkpt
            }
            a = a + tmp
            work(2)
            j = 0
            while j < 1 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                chkpt
                a = a + tmp
                j = j + 1
            }
            work(1)
            chkpt
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            chkpt
            work(3)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 2 {
        chkpt
        c = a + 1
        bcast(2 % nproc, c)
        a = a + c
        work(1)
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        chkpt
        a = a + tmp
        work(2)
        j = 0
        while j < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            j = j + 1
        }
        work(2)
        i0 = i0 + 1
    }
    work(1)
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 1 {
            j = 0
            while j < 2 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                a = a + tmp
                j = j + 1
            }
            work(1)
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            chkpt
            work(3)
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            work(3)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(1)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 2 {
                j = 0
                while j < 1 {
                    send((rank + 1) % nproc, a)
                    recv((rank - 1) % nproc, tmp)
                    chkpt
                    a = a + tmp
                    j = j + 1
                }
                work(1)
                chkpt
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                a = a + tmp
                work(3)
                chkpt
                c = a
                reduce(0, c)
                bcast(0, c)
                a = a + c
                work(3)
                c = a + 1
                bcast(0 % nproc, c)
                chkpt
                chkpt
                a = a + c
                work(2)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(2)
    i0 = 0
    while i0 < 2 {
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(2)
        c = a
        reduce(0, c)
        bcast(0, c)
        a = a + c
        work(3)
        i0 = i0 + 1
    }
    chkpt
    work(2)
}
program genlarge_2

var a, c, tmp, j, i0, i1, i2

proc {
    a = rank + 1
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 1 {
            if rank % 2 == 0 {
                chkpt
                send(rank + 1, a)
                chkpt
                recv(rank + 1, tmp)
            } else {
                recv(rank - 1, tmp)
                chkpt
                send(rank - 1, a)
            }
            a = a + tmp
            work(1)
            j = 0
            while j < 1 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                chkpt
                a = a + tmp
                j = j + 1
                chkpt
            }
            work(1)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(2)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 2 {
                if rank == 0 {
                    send(1, a)
                    recv(1, tmp)
                }
                if rank == 1 {
                    recv(0, tmp)
                    send(0, tmp)
                }
                chkpt
                work(3)
                c = a + 1
                bcast(3 % nproc, c)
                a = a + c
                work(1)
                if rank < nproc / 2 {
                    chkpt
                    send(rank + nproc / 2, a)
                } else {
                    if rank < 2 * (nproc / 2) {
                        recv(rank - nproc / 2, tmp)
                        a = a + tmp
                    }
                    chkpt
                }
                work(1)
                c = a + 1
                bcast(3 % nproc, c)
                a = a + c
                work(2)
                i2 = i2 + 1
            }
            chkpt
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(2)
    i0 = 0
    while i0 < 2 {
        if rank < nproc / 2 {
            chkpt
            send(rank + nproc / 2, a)
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(2)
        chkpt
        send((rank + 1) % nproc, a)
        chkpt
        recv((rank - 1) % nproc, tmp)
        chkpt
        a = a + tmp
        work(2)
        if rank < nproc / 2 {
            send(rank + nproc / 2, a)
            chkpt
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(2)
        i0 = i0 + 1
    }
    chkpt
    work(1)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            work(2)
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            chkpt
            chkpt
            work(3)
            if rank < nproc / 2 {
                chkpt
                send(rank + nproc / 2, a)
                chkpt
            } else {
                if rank < 2 * (nproc / 2) {
                    recv(rank - nproc / 2, tmp)
                    a = a + tmp
                }
                chkpt
            }
            work(3)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(3)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 2 {
            chkpt
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            work(1)
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            work(1)
            if rank % 2 == 0 {
                send(rank + 1, a)
                recv(rank + 1, tmp)
                chkpt
            } else {
                recv(rank - 1, tmp)
                send(rank - 1, a)
                chkpt
            }
            a = a + tmp
            work(1)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(1)
    i0 = 0
    while i0 < 1 {
        j = 0
        while j < 1 {
            send((rank + 1) % nproc, a)
            chkpt
            recv((rank - 1) % nproc, tmp)
            chkpt
            a = a + tmp
            j = j + 1
        }
        work(3)
        c = a + 1
        bcast(3 % nproc, c)
        a = a + c
        work(1)
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(2)
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        chkpt
        work(1)
        i0 = i0 + 1
    }
    chkpt
    chkpt
    work(1)
}
program genlarge_3

var a, c, tmp, j, i0, i1, i2

proc {
    a = rank + 1
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 1 {
            chkpt
            chkpt
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            chkpt
            a = a + tmp
            work(1)
            if rank % 2 == 0 {
                send(rank + 1, a)
                recv(rank + 1, tmp)
                chkpt
            } else {
                recv(rank - 1, tmp)
                chkpt
                send(rank - 1, a)
            }
            a = a + tmp
            work(1)
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            work(3)
            c = a + 1
            bcast(2 % nproc, c)
            a = a + c
            work(1)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 2 {
            if rank == nproc - 1 {
                send(0, a)
            }
            if rank == 0 {
                recv(nproc - 1, tmp)
                a = a + tmp
            }
            work(2)
            c = a + 1
            bcast(2 % nproc, c)
            a = a + c
            chkpt
            work(3)
            if rank % 2 == 0 {
                send(rank + 1, a)
                recv(rank + 1, tmp)
                chkpt
            } else {
                recv(rank - 1, tmp)
                send(rank - 1, a)
                chkpt
            }
            a = a + tmp
            work(3)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 1 {
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        chkpt
        chkpt
        work(3)
        chkpt
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(2)
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        chkpt
        a = a + tmp
        work(3)
        if rank == nproc - 1 {
            send(0, a)
        }
        chkpt
        chkpt
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(2)
        i0 = i0 + 1
    }
    chkpt
    work(2)
    i0 = 0
    while i0 < 1 {
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
            chkpt
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, a)
            chkpt
        }
        a = a + tmp
        chkpt
        work(1)
        chkpt
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(2)
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, a)
            chkpt
        }
        a = a + tmp
        work(1)
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(2)
        i0 = i0 + 1
    }
    chkpt
    work(2)
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 1 {
                if rank == nproc - 1 {
                    send(0, a)
                }
                if rank == 0 {
                    recv(nproc - 1, tmp)
                    a = a + tmp
                }
                work(2)
                if rank == 0 {
                    send(1, a)
                    recv(1, tmp)
                }
                if rank == 1 {
                    recv(0, tmp)
                    send(0, tmp)
                }
                chkpt
                work(1)
                c = a
                reduce(0, c)
                bcast(0, c)
                a = a + c
                work(1)
                if rank < nproc / 2 {
                    send(rank + nproc / 2, a)
                    chkpt
                } else {
                    if rank < 2 * (nproc / 2) {
                        recv(rank - nproc / 2, tmp)
                        a = a + tmp
                    }
                    chkpt
                }
                work(1)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 1 {
                if rank % 2 == 0 {
                    chkpt
                    send(rank + 1, a)
                    recv(rank + 1, tmp)
                } else {
                    recv(rank - 1, tmp)
                    chkpt
                    send(rank - 1, a)
                }
                a = a + tmp
                work(3)
                c = a
                reduce(0, c)
                bcast(0, c)
                a = a + c
                work(1)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(2)
}
program genlarge_4

var a, c, tmp, j, i0, i1, i2

proc {
    a = rank + 1
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 2 {
            chkpt
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            work(2)
            j = 0
            while j < 1 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                a = a + tmp
                chkpt
                j = j + 1
            }
            work(1)
            chkpt
            c = a
            reduce(0, c)
            bcast(0, c)
            chkpt
            a = a + c
            work(2)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(2)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 2 {
            i2 = 0
            while i2 < 2 {
                if rank % 2 == 0 {
                    chkpt
                    send(rank + 1, a)
                    recv(rank + 1, tmp)
                } else {
                    recv(rank - 1, tmp)
                    chkpt
                    send(rank - 1, a)
                }
                a = a + tmp
                work(3)
                if rank == nproc - 1 {
                    send(0, a)
                }
                if rank == 0 {
                    recv(nproc - 1, tmp)
                    a = a + tmp
                }
                work(2)
                if rank % 2 == 0 {
                    chkpt
                    send(rank + 1, a)
                    recv(rank + 1, tmp)
                } else {
                    recv(rank - 1, tmp)
                    chkpt
                    send(rank - 1, a)
                }
                a = a + tmp
                work(1)
                j = 0
                while j < 2 {
                    send((rank + 1) % nproc, a)
                    recv((rank - 1) % nproc, tmp)
                    a = a + tmp
                    j = j + 1
                }
                work(1)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(3)
    i0 = 0
    while i0 < 2 {
        chkpt
        if rank < nproc / 2 {
            send(rank + nproc / 2, a)
            chkpt
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
            chkpt
        }
        work(2)
        if rank < nproc / 2 {
            chkpt
            send(rank + nproc / 2, a)
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(2)
        i0 = i0 + 1
    }
    work(1)
    i0 = 0
    while i0 < 1 {
        chkpt
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(1)
        chkpt
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        chkpt
        a = a + tmp
        work(1)
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(2)
        if rank == nproc - 1 {
            send(0, a)
        }
        chkpt
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(2)
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 2 {
                chkpt
                c = a
                reduce(0, c)
                bcast(0, c)
                a = a + c
                work(3)
                chkpt
                chkpt
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                a = a + tmp
                work(3)
                if rank < nproc / 2 {
                    chkpt
                    send(rank + nproc / 2, a)
                } else {
                    if rank < 2 * (nproc / 2) {
                        recv(rank - nproc / 2, tmp)
                        a = a + tmp
                    }
                    chkpt
                }
                work(2)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(3)
    i0 = 0
    while i0 < 1 {
        if rank < nproc / 2 {
            chkpt
            send(rank + nproc / 2, a)
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(1)
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(2)
        i0 = i0 + 1
    }
    work(1)
}
program genlarge_5

var a, c, tmp, j, i0, i1, i2

proc {
    a = rank + 1
    i0 = 0
    while i0 < 2 {
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(2)
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(3)
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(3)
        i0 = i0 + 1
    }
    chkpt
    work(3)
    i0 = 0
    while i0 < 1 {
        j = 0
        while j < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            chkpt
            a = a + tmp
            j = j + 1
        }
        work(3)
        c = a
        reduce(0, c)
        bcast(0, c)
        a = a + c
        work(3)
        i0 = i0 + 1
    }
    work(2)
    i0 = 0
    while i0 < 2 {
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(3)
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(1)
        i0 = i0 + 1
    }
    chkpt
    work(2)
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 2 {
            j = 0
            while j < 2 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                a = a + tmp
                j = j + 1
            }
            work(1)
            chkpt
            j = 0
            while j < 2 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                chkpt
                a = a + tmp
                j = j + 1
            }
            work(3)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(2)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            if rank == nproc - 1 {
                send(0, a)
            }
            if rank == 0 {
                recv(nproc - 1, tmp)
                a = a + tmp
            }
            work(1)
            if rank < nproc / 2 {
                send(rank + nproc / 2, a)
                chkpt
            } else {
                if rank < 2 * (nproc / 2) {
                    recv(rank - nproc / 2, tmp)
                    a = a + tmp
                }
                chkpt
            }
            work(1)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 2 {
        j = 0
        while j < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            j = j + 1
        }
        work(2)
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(1)
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, a)
            chkpt
        }
        a = a + tmp
        work(1)
        chkpt
        i0 = i0 + 1
    }
    work(1)
}
program genlarge_6

var a, c, tmp, j, i0, i1, i2

proc {
    a = rank + 1
    i0 = 0
    while i0 < 1 {
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(1)
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, a)
            chkpt
        }
        a = a + tmp
        work(1)
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(3)
        c = a
        reduce(0, c)
        bcast(0, c)
        a = a + c
        work(1)
        i0 = i0 + 1
    }
    work(2)
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 2 {
            i2 = 0
            while i2 < 1 {
                if rank % 2 == 0 {
                    chkpt
                    send(rank + 1, a)
                    recv(rank + 1, tmp)
                } else {
                    recv(rank - 1, tmp)
                    chkpt
                    send(rank - 1, a)
                }
                a = a + tmp
                work(2)
                c = a + 1
                bcast(0 % nproc, c)
                a = a + c
                work(1)
                if rank == 0 {
                    send(1, a)
                    recv(1, tmp)
                }
                if rank == 1 {
                    recv(0, tmp)
                    send(0, tmp)
                }
                chkpt
                work(3)
                chkpt
                c = a + 1
                bcast(0 % nproc, c)
                a = a + c
                work(2)
                i2 = i2 + 1
                chkpt
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(1)
    i0 = 0
    chkpt
    while i0 < 1 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 1 {
                if rank < nproc / 2 {
                    send(rank + nproc / 2, a)
                    chkpt
                } else {
                    if rank < 2 * (nproc / 2) {
                        recv(rank - nproc / 2, tmp)
                        a = a + tmp
                    }
                    chkpt
                    chkpt
                }
                work(1)
                if rank == nproc - 1 {
                    send(0, a)
                }
                chkpt
                if rank == 0 {
                    recv(nproc - 1, tmp)
                    a = a + tmp
                }
                work(3)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(1)
    i0 = 0
    while i0 < 2 {
        j = 0
        while j < 1 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            j = j + 1
        }
        work(1)
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(1)
        if rank < nproc / 2 {
            chkpt
            send(rank + nproc / 2, a)
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(2)
        chkpt
        c = a + 1
        bcast(3 % nproc, c)
        chkpt
        a = a + c
        work(2)
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 2 {
            if rank % 2 == 0 {
                send(rank + 1, a)
                recv(rank + 1, tmp)
                chkpt
            } else {
                recv(rank - 1, tmp)
                send(rank - 1, a)
                chkpt
            }
            a = a + tmp
            work(2)
            j = 0
            while j < 2 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                chkpt
                a = a + tmp
                j = j + 1
            }
            work(3)
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            work(3)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(1)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 2 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                a = a + tmp
                work(2)
                if rank < nproc / 2 {
                    send(rank + nproc / 2, a)
                    chkpt
                } else {
                    if rank < 2 * (nproc / 2) {
                        recv(rank - nproc / 2, tmp)
                        a = a + tmp
                    }
                    chkpt
                }
                work(3)
                if rank % 2 == 0 {
                    chkpt
                    send(rank + 1, a)
                    recv(rank + 1, tmp)
                } else {
                    recv(rank - 1, tmp)
                    send(rank - 1, a)
                    chkpt
                }
                a = a + tmp
                work(2)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(3)
}
program genlarge_7

var a, c, tmp, j, i0, i1, i2

proc {
    a = rank + 1
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 2 {
            i2 = 0
            while i2 < 1 {
                if rank < nproc / 2 {
                    chkpt
                    send(rank + nproc / 2, a)
                } else {
                    if rank < 2 * (nproc / 2) {
                        recv(rank - nproc / 2, tmp)
                        a = a + tmp
                    }
                    chkpt
                }
                work(2)
                if rank % 2 == 0 {
                    chkpt
                    send(rank + 1, a)
                    chkpt
                    recv(rank + 1, tmp)
                } else {
                    recv(rank - 1, tmp)
                    chkpt
                    send(rank - 1, a)
                }
                a = a + tmp
                work(2)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(3)
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 1 {
            chkpt
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            work(1)
            chkpt
            c = a
            reduce(0, c)
            bcast(0, c)
            chkpt
            a = a + c
            work(1)
            j = 0
            while j < 2 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                a = a + tmp
                j = j + 1
            }
            work(2)
            if rank < nproc / 2 {
                send(rank + nproc / 2, a)
                chkpt
            } else {
                if rank < 2 * (nproc / 2) {
                    recv(rank - nproc / 2, tmp)
                    a = a + tmp
                }
                chkpt
            }
            work(2)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            chkpt
            i2 = 0
            while i2 < 1 {
                if rank < nproc / 2 {
                    chkpt
                    chkpt
                    send(rank + nproc / 2, a)
                } else {
                    if rank < 2 * (nproc / 2) {
                        recv(rank - nproc / 2, tmp)
                        a = a + tmp
                    }
                    chkpt
                }
                work(3)
                chkpt
                c = a
                reduce(0, c)
                bcast(0, c)
                chkpt
                a = a + c
                work(2)
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                chkpt
                a = a + tmp
                work(3)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(1)
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 2 {
                if rank % 2 == 0 {
                    send(rank + 1, a)
                    recv(rank + 1, tmp)
                    chkpt
                } else {
                    recv(rank - 1, tmp)
                    send(rank - 1, a)
                    chkpt
                }
                a = a + tmp
                work(3)
                j = 0
                while j < 2 {
                    send((rank + 1) % nproc, a)
                    recv((rank - 1) % nproc, tmp)
                    a = a + tmp
                    j = j + 1
                }
                work(3)
                if rank % 2 == 0 {
                    send(rank + 1, a)
                    recv(rank + 1, tmp)
                    chkpt
                } else {
                    recv(rank - 1, tmp)
                    chkpt
                    send(rank - 1, a)
                }
                a = a + tmp
                work(2)
                c = a
                reduce(0, c)
                bcast(0, c)
                a = a + c
                work(1)
                chkpt
                i2 = i2 + 1
                chkpt
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            chkpt
            c = a
            reduce(0, c)
            bcast(0, c)
            chkpt
            a = a + c
            work(1)
            chkpt
            c = a
            reduce(0, c)
            bcast(0, c)
            a = a + c
            work(3)
            if rank == nproc - 1 {
                send(0, a)
            }
            if rank == 0 {
                recv(nproc - 1, tmp)
                a = a + tmp
            }
            work(1)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(2)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 2 {
            if rank % 2 == 0 {
                chkpt
                send(rank + 1, a)
                recv(rank + 1, tmp)
            } else {
                recv(rank - 1, tmp)
                send(rank - 1, a)
                chkpt
            }
            a = a + tmp
            work(3)
            if rank == nproc - 1 {
                send(0, a)
            }
            if rank == 0 {
                recv(nproc - 1, tmp)
                a = a + tmp
            }
            chkpt
            work(1)
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            work(3)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(1)
}
program genlarge_8

var a, c, tmp, j, i0, i1, i2

proc {
    a = rank + 1
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            if rank < nproc / 2 {
                chkpt
                send(rank + nproc / 2, a)
            } else {
                if rank < 2 * (nproc / 2) {
                    recv(rank - nproc / 2, tmp)
                    a = a + tmp
                }
                chkpt
            }
            work(2)
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            work(1)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(3)
    i0 = 0
    while i0 < 2 {
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            chkpt
            chkpt
            send(rank - 1, a)
            chkpt
        }
        a = a + tmp
        work(1)
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(3)
        i0 = i0 + 1
    }
    work(2)
    i0 = 0
    while i0 < 1 {
        if rank == nproc - 1 {
            send(0, a)
        }
        chkpt
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(2)
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        chkpt
        work(2)
        i0 = i0 + 1
    }
    chkpt
    work(3)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 1 {
                send((rank + 1) % nproc, a)
                recv((rank - 1) % nproc, tmp)
                a = a + tmp
                work(1)
                if rank % 2 == 0 {
                    send(rank + 1, a)
                    recv(rank + 1, tmp)
                    chkpt
                } else {
                    recv(rank - 1, tmp)
                    chkpt
                    send(rank - 1, a)
                }
                a = a + tmp
                chkpt
                work(3)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(1)
    i0 = 0
    while i0 < 1 {
        i1 = 0
        while i1 < 2 {
            if rank == nproc - 1 {
                send(0, a)
            }
            if rank == 0 {
                recv(nproc - 1, tmp)
                a = a + tmp
            }
            work(3)
            if rank == 0 {
                send(1, a)
                recv(1, tmp)
            }
            if rank == 1 {
                recv(0, tmp)
                send(0, tmp)
            }
            work(1)
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    work(3)
    i0 = 0
    while i0 < 2 {
        i1 = 0
        while i1 < 1 {
            i2 = 0
            while i2 < 1 {
                if rank == 0 {
                    send(1, a)
                    recv(1, tmp)
                }
                if rank == 1 {
                    recv(0, tmp)
                    send(0, tmp)
                }
                work(3)
                j = 0
                while j < 1 {
                    send((rank + 1) % nproc, a)
                    recv((rank - 1) % nproc, tmp)
                    a = a + tmp
                    j = j + 1
                }
                work(1)
                chkpt
                if rank == 0 {
                    send(1, a)
                    recv(1, tmp)
                }
                if rank == 1 {
                    recv(0, tmp)
                    send(0, tmp)
                }
                chkpt
                work(1)
                i2 = i2 + 1
            }
            i1 = i1 + 1
        }
        i0 = i0 + 1
    }
    chkpt
    work(1)
}
program gen_1

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        c = a
        reduce(0, c)
        bcast(0, c)
        a = a + c
        work(2)
        if rank < nproc / 2 {
            chkpt
            send(rank + nproc / 2, a)
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(1)
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(1)
        iter = iter + 1
        chkpt
    }
    chkpt
    a = a + 1
    chkpt
}
program gen_2

const ITERS = 2

var a, c, tmp, iter, j

proc {
    chkpt
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(2)
        iter = iter + 1
    }
    j = 0
    while j < 1 {
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        chkpt
        a = a + tmp
        j = j + 1
    }
    work(1)
}
program gen_3

const ITERS = 2

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        c = a + 1
        bcast(3 % nproc, c)
        a = a + c
        work(1)
        iter = iter + 1
    }
    chkpt
    c = a
    reduce(0, c)
    bcast(0, c)
    a = a + c
    work(3)
}
program gen_4

const ITERS = 2

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        j = 0
        while j < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            j = j + 1
        }
        work(2)
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(3)
        iter = iter + 1
    }
    chkpt
    c = a
    reduce(0, c)
    bcast(0, c)
    chkpt
    chkpt
    a = a + c
    work(2)
}
program gen_5

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(2)
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(3)
        iter = iter + 1
    }
    j = 0
    while j < 1 {
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        chkpt
        a = a + tmp
        j = j + 1
    }
    work(1)
    chkpt
    a = a + 1
}
program gen_6

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        chkpt
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(1)
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, a)
            chkpt
        }
        chkpt
        a = a + tmp
        work(1)
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(3)
        iter = iter + 1
    }
}
program gen_7

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    chkpt
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        j = 0
        while j < 1 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            chkpt
            a = a + tmp
            j = j + 1
        }
        work(2)
        iter = iter + 1
        chkpt
    }
    if rank % 2 == 0 {
        chkpt
        send(rank + 1, a)
        recv(rank + 1, tmp)
    } else {
        recv(rank - 1, tmp)
        chkpt
        send(rank - 1, a)
    }
    a = a + tmp
    work(2)
    chkpt
    a = a + 1
}
program gen_8

const ITERS = 2

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        if rank < nproc / 2 {
            chkpt
            send(rank + nproc / 2, a)
            chkpt
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(2)
        chkpt
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(1)
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        chkpt
        a = a + tmp
        work(1)
        iter = iter + 1
    }
}
program gen_9

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(1)
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(3)
        chkpt
        chkpt
        iter = iter + 1
    }
    chkpt
    a = a + 1
}
program gen_10

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        c = a
        reduce(0, c)
        bcast(0, c)
        a = a + c
        work(2)
        j = 0
        while j < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            chkpt
            a = a + tmp
            j = j + 1
        }
        work(1)
        iter = iter + 1
    }
    chkpt
    a = a + 1
}
program gen_11

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        if rank < nproc / 2 {
            chkpt
            send(rank + nproc / 2, a)
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
            chkpt
        }
        work(2)
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(1)
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(2)
        iter = iter + 1
    }
    if rank == 0 {
        send(1, a)
        recv(1, tmp)
    }
    if rank == 1 {
        recv(0, tmp)
        send(0, tmp)
    }
    chkpt
    work(1)
}
program gen_12

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        c = a + 1
        bcast(2 % nproc, c)
        chkpt
        a = a + c
        work(3)
        j = 0
        while j < 1 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            chkpt
            a = a + tmp
            j = j + 1
        }
        chkpt
        work(1)
        iter = iter + 1
    }
    chkpt
    a = a + 1
}
program gen_13

const ITERS = 2

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        c = a
        reduce(0, c)
        bcast(0, c)
        a = a + c
        work(3)
        iter = iter + 1
    }
    chkpt
    a = a + 1
}
program gen_14

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        chkpt
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(3)
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(2)
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
        } else {
            recv(rank - 1, tmp)
            chkpt
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(3)
        iter = iter + 1
    }
    if rank < nproc / 2 {
        send(rank + nproc / 2, a)
        chkpt
    } else {
        if rank < 2 * (nproc / 2) {
            recv(rank - nproc / 2, tmp)
            a = a + tmp
        }
        chkpt
    }
    work(3)
    chkpt
    a = a + 1
}
program gen_15

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    chkpt
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        c = a + 1
        bcast(1 % nproc, c)
        chkpt
        a = a + c
        work(3)
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(3)
        iter = iter + 1
    }
    if rank % 2 == 0 {
        send(rank + 1, a)
        recv(rank + 1, tmp)
        chkpt
    } else {
        recv(rank - 1, tmp)
        send(rank - 1, a)
        chkpt
    }
    a = a + tmp
    work(1)
    chkpt
    a = a + 1
}
program gen_16

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        j = 0
        while j < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            j = j + 1
        }
        chkpt
        work(1)
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(1)
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        chkpt
        a = a + tmp
        work(2)
        iter = iter + 1
    }
}
program gen_17

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        chkpt
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(2)
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(1)
        iter = iter + 1
    }
    chkpt
    a = a + 1
}
program gen_18

const ITERS = 2

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        if rank == nproc - 1 {
            send(0, a)
        }
        chkpt
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(1)
        if rank == nproc - 1 {
            send(0, a)
        }
        chkpt
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(3)
        iter = iter + 1
    }
    if rank % 2 == 0 {
        chkpt
        send(rank + 1, a)
        recv(rank + 1, tmp)
        chkpt
        chkpt
    } else {
        recv(rank - 1, tmp)
        chkpt
        send(rank - 1, a)
    }
    a = a + tmp
    work(3)
}
program gen_19

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        j = 0
        while j < 1 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            chkpt
            a = a + tmp
            j = j + 1
        }
        work(1)
        chkpt
        iter = iter + 1
    }
    chkpt
    a = a + 1
}
program gen_20

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        chkpt
        work(1)
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(3)
        chkpt
        chkpt
        c = a + 1
        bcast(0 % nproc, c)
        chkpt
        a = a + c
        work(3)
        iter = iter + 1
    }
    chkpt
    c = a + 1
    bcast(2 % nproc, c)
    a = a + c
    work(3)
}
program gen_21

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(2)
        iter = iter + 1
    }
    chkpt
    a = a + 1
    chkpt
}
program gen_22

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        chkpt
        c = a
        reduce(0, c)
        bcast(0, c)
        a = a + c
        work(2)
        chkpt
        c = a + 1
        bcast(2 % nproc, c)
        a = a + c
        work(3)
        iter = iter + 1
    }
}
program gen_23

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        if rank < nproc / 2 {
            chkpt
            send(rank + nproc / 2, a)
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(1)
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(2)
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, a)
            chkpt
        }
        a = a + tmp
        work(2)
        iter = iter + 1
    }
    if rank == nproc - 1 {
        send(0, a)
    }
    chkpt
    if rank == 0 {
        recv(nproc - 1, tmp)
        a = a + tmp
    }
    work(3)
}
program gen_24

const ITERS = 2

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        c = a + 1
        bcast(0 % nproc, c)
        chkpt
        a = a + c
        work(2)
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            chkpt
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(1)
        iter = iter + 1
    }
    if rank < nproc / 2 {
        chkpt
        send(rank + nproc / 2, a)
    } else {
        if rank < 2 * (nproc / 2) {
            recv(rank - nproc / 2, tmp)
            a = a + tmp
        }
        chkpt
    }
    work(2)
}
program gen_25

const ITERS = 2

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        c = a
        reduce(0, c)
        bcast(0, c)
        chkpt
        a = a + c
        work(3)
        c = a + 1
        bcast(3 % nproc, c)
        a = a + c
        work(2)
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(1)
        iter = iter + 1
    }
    chkpt
    a = a + 1
}
program gen_26

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        chkpt
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(2)
        iter = iter + 1
        chkpt
    }
    chkpt
    a = a + 1
}
program gen_27

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        c = a + 1
        bcast(3 % nproc, c)
        chkpt
        a = a + c
        work(1)
        j = 0
        while j < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            j = j + 1
        }
        work(1)
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, a)
            chkpt
        }
        a = a + tmp
        work(1)
        iter = iter + 1
    }
    chkpt
    a = a + 1
    chkpt
}
program gen_28

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        j = 0
        while j < 1 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            chkpt
            a = a + tmp
            j = j + 1
        }
        work(2)
        c = a
        reduce(0, c)
        bcast(0, c)
        chkpt
        a = a + c
        chkpt
        work(2)
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, a)
            chkpt
        }
        a = a + tmp
        work(1)
        iter = iter + 1
    }
    if rank < nproc / 2 {
        chkpt
        send(rank + nproc / 2, a)
    } else {
        if rank < 2 * (nproc / 2) {
            recv(rank - nproc / 2, tmp)
            a = a + tmp
        }
        chkpt
    }
    work(3)
}
program gen_29

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(2)
        iter = iter + 1
    }
    j = 0
    while j < 1 {
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        chkpt
        chkpt
        a = a + tmp
        j = j + 1
    }
    work(2)
}
program gen_30

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        chkpt
        work(1)
        chkpt
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        work(1)
        if rank % 2 == 0 {
            send(rank + 1, a)
            recv(rank + 1, tmp)
            chkpt
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, a)
            chkpt
        }
        a = a + tmp
        work(2)
        iter = iter + 1
    }
    chkpt
    c = a
    reduce(0, c)
    bcast(0, c)
    a = a + c
    work(1)
}
program gen_31

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        if rank < nproc / 2 {
            send(rank + nproc / 2, a)
            chkpt
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(2)
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(2)
        iter = iter + 1
    }
    c = a
    reduce(0, c)
    bcast(0, c)
    chkpt
    a = a + c
    work(1)
    chkpt
    a = a + 1
}
program gen_32

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        if rank == 0 {
            send(1, a)
            recv(1, tmp)
        }
        if rank == 1 {
            recv(0, tmp)
            send(0, tmp)
        }
        chkpt
        work(2)
        chkpt
        if rank < nproc / 2 {
            send(rank + nproc / 2, a)
            chkpt
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        chkpt
        work(2)
        iter = iter + 1
    }
    c = a
    reduce(0, c)
    bcast(0, c)
    a = a + c
    work(3)
    chkpt
    a = a + 1
}
program gen_33

const ITERS = 2

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        c = a + 1
        bcast(3 % nproc, c)
        a = a + c
        work(3)
        iter = iter + 1
    }
    if rank == nproc - 1 {
        send(0, a)
    }
    chkpt
    if rank == 0 {
        recv(nproc - 1, tmp)
        a = a + tmp
    }
    work(3)
}
program gen_34

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    chkpt
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        if rank < nproc / 2 {
            chkpt
            send(rank + nproc / 2, a)
        } else {
            if rank < 2 * (nproc / 2) {
                recv(rank - nproc / 2, tmp)
                a = a + tmp
            }
            chkpt
        }
        work(1)
        iter = iter + 1
    }
    if rank == nproc - 1 {
        send(0, a)
    }
    if rank == 0 {
        recv(nproc - 1, tmp)
        a = a + tmp
    }
    work(1)
    chkpt
}
program gen_35

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        work(3)
        iter = iter + 1
    }
    if rank % 2 == 0 {
        chkpt
        send(rank + 1, a)
        recv(rank + 1, tmp)
        chkpt
    } else {
        recv(rank - 1, tmp)
        chkpt
        send(rank - 1, a)
    }
    a = a + tmp
    work(2)
}
program gen_36

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    c = input(rank)
    a = a + c
    iter = 0
    while iter < ITERS {
        c = a + 1
        bcast(2 % nproc, c)
        chkpt
        a = a + c
        work(1)
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, a)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            chkpt
            send(rank - 1, a)
        }
        a = a + tmp
        work(2)
        iter = iter + 1
    }
    chkpt
    c = a + 1
    bcast(0 % nproc, c)
    a = a + c
    work(1)
}
program gen_37

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        j = 0
        while j < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            j = j + 1
        }
        work(2)
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(2)
        chkpt
        iter = iter + 1
    }
    j = 0
    while j < 1 {
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        a = a + tmp
        j = j + 1
    }
    work(3)
}
program gen_38

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        send((rank + 1) % nproc, a)
        recv((rank - 1) % nproc, tmp)
        chkpt
        a = a + tmp
        work(3)
        if rank == nproc - 1 {
            send(0, a)
        }
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(1)
        chkpt
        c = a
        reduce(0, c)
        bcast(0, c)
        chkpt
        a = a + c
        work(2)
        iter = iter + 1
    }
    chkpt
    a = a + 1
}
program gen_39

const ITERS = 3

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        if rank == nproc - 1 {
            send(0, a)
        }
        chkpt
        if rank == 0 {
            recv(nproc - 1, tmp)
            a = a + tmp
        }
        work(3)
        iter = iter + 1
    }
}
program gen_40

const ITERS = 1

var a, c, tmp, iter, j

proc {
    a = rank + 1
    iter = 0
    while iter < ITERS {
        j = 0
        while j < 2 {
            send((rank + 1) % nproc, a)
            recv((rank - 1) % nproc, tmp)
            a = a + tmp
            j = j + 1
            chkpt
            chkpt
        }
        work(2)
        iter = iter + 1
    }
    chkpt
    a = a + 1
}
